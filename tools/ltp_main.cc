/**
 * @file
 * `ltp` — the unified experiment driver.  Experiments are data: any
 * cell of the paper's design space is reachable from the command line
 * (presets + dotted --set overrides), and whole studies ship as JSON
 * scenario files compiled onto the sharded Runner.
 *
 *   ltp run [--preset=... --mode=... --kernel=a,b --set core.iq=32 ...]
 *   ltp sweep <scenario.json> [--threads=N --progress --json=... --csv=...]
 *   ltp bench [--quick --reps=N --profile --baseline=f.json --check]
 *   ltp record <kernel|scenario.json|all> --out=dir [--seed=N ...]
 *   ltp replay <trace.lttr|dir> [--verify --preset=... --set ...]
 *   ltp list-kernels
 *   ltp classify [--seed=N --threads=N ...]
 *   ltp print-config <preset> [--mode=... --set k=v ...] | --paths
 *
 * All simulation commands take --warm/--pipewarm/--detail staging
 * overrides, --seed, --threads=N (0 = all cores), --json=… and --csv=…
 * result archiving, and --help.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/file_io.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "sample/checkpoint.hh"
#include "sample/sampler.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/worker_pool.hh"
#include "sim/config.hh"
#include "sim/exec_backend.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/simspeed.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"
#include "trace/trace_workload.hh"

using namespace ltp;

namespace {

int
usage(int status)
{
    std::printf(
        "ltp — declarative LTP experiment driver\n"
        "\n"
        "usage: ltp <command> [args] [--flags]\n"
        "\n"
        "commands:\n"
        "  run            simulate one config over one or more kernels\n"
        "  sweep <file>   compile and run a JSON scenario file\n"
        "                 (--progress prints a cells-done heartbeat;\n"
        "                 --submit ships the whole scenario to an\n"
        "                 `ltp serve` daemon in one request instead)\n"
        "  bench          measure simulator throughput (kIPS) over\n"
        "                 kernels and scenarios -> BENCH_simspeed.json;\n"
        "                 --baseline=<file> --check gates regressions\n"
        "  record <what>  record .lttr traces (a kernel list, a\n"
        "                 scenario file, or 'all') into --out=<dir>\n"
        "  replay <path>  replay .lttr traces (a file or directory);\n"
        "                 --verify re-executes and diffs the Metrics\n"
        "  sample <kernel>  interval-sampled simulation: repeating\n"
        "                 fast-forward/warmup/detail periods, mean IPC\n"
        "                 with a 95%% confidence interval; `ltp sample\n"
        "                 compare --full=a.json --sampled=b.json` gates\n"
        "                 a sampled report against a full-detail one\n"
        "  checkpoint <create|ls|verify>   architectural .ltcp\n"
        "                 checkpoints (fast-forwarded predictor and\n"
        "                 cache state) for `ltp sample --from=<file>`\n"
        "  list-kernels   print the registered kernel suite\n"
        "  classify       Section 4.1 MLP-sensitivity classification\n"
        "  print-config <preset>   print a preset's config as JSON\n"
        "  cache <ls|stat|gc|clear>   inspect / prune the result cache\n"
        "  serve [ping|stats|stop]    run (or control) the cell daemon;\n"
        "                 repeatable --worker=host:port (or a\n"
        "                 --workers=<file> list) makes the daemon a\n"
        "                 distributed frontend over remote workers\n"
        "\n"
        "every command accepts --help and the shared global flags:\n"
        "--warm/--pipewarm/--detail staging, --seed, --threads=N\n"
        "(0 = all cores), --json/--csv result archiving, repeatable\n"
        "--set <dotted.path>=<value> config overrides (see `ltp\n"
        "print-config --paths`), and the execution-backend flags:\n"
        "  --no-cache          bypass the content-addressed result cache\n"
        "  --cache-dir=<dir>   cache root (default $LTP_CACHE_DIR or\n"
        "                      ~/.cache/ltp)\n"
        "  --backend=local|serve   where cells run (default local)\n"
        "  --server=host:port  serve daemon address (implies\n"
        "                      --backend=serve; default 127.0.0.1:%d)\n"
        "  --server-timeout=<ms>  max server silence per request\n"
        "                      before the sweep fails (default 300000)\n",
        kDefaultServePort);
    return status;
}

/** Apply every --set key=value onto @p cfg; fatal on bad paths. */
void
applySets(SimConfig &cfg, const Cli &cli)
{
    for (const std::string &kv : cli.list("set")) {
        auto eq = kv.find('=');
        if (eq == std::string::npos)
            fatal("--set needs <dotted.path>=<value>, got '%s'",
                  kv.c_str());
        applyOverride(cfg, kv.substr(0, eq), kv.substr(eq + 1));
    }
}

/** Build a preset by name, with optional --mode. */
SimConfig
presetConfig(const std::string &preset, const Cli &cli)
{
    bool has_mode = cli.has("mode");
    LtpMode mode = LtpMode::NU;
    if (has_mode)
        mode = parseLtpMode(cli.str("mode", ""), "--mode");
    if (preset == "baseline")
        return SimConfig::baseline();
    if (preset == "ltpProposal")
        return SimConfig::ltpProposal(mode);
    if (preset == "limitStudy") {
        if (!has_mode)
            fatal("preset limitStudy requires --mode=off|NU|NR|NR+NU");
        return SimConfig::limitStudy(mode);
    }
    fatal("unknown preset '%s' (expected "
          "baseline|ltpProposal|limitStudy)",
          preset.c_str());
}

/**
 * The execution backend the shared flags select: an `ltp serve` client
 * (--backend=serve / --server=...), the cache-wrapped local backend
 * (the default — sweeps are answered from ~/.cache/ltp when the exact
 * cell was run before), or the bare local backend (--no-cache).
 * Returning nullptr lets the Runner use its zero-overhead default.
 */
ExecBackendPtr
makeBackend(const Cli &cli)
{
    std::string kind =
        cli.str("backend", cli.has("server") ? "serve" : "local");
    if (kind == "serve") {
        std::string host = "127.0.0.1";
        int port = kDefaultServePort;
        parseHostPort(cli.str("server", ""), &host, &port);
        ServeClientOptions topts;
        topts.replyTimeoutMs =
            int(cli.integer("server-timeout", topts.replyTimeoutMs));
        return std::make_shared<ServeBackend>(host, port, topts);
    }
    if (kind != "local")
        fatal("unknown --backend '%s' (expected local|serve)",
              kind.c_str());
    if (cli.flag("no-cache"))
        return nullptr;
    return std::make_shared<CachedBackend>(
        LocalBackend::instance(),
        std::make_shared<ResultCache>(cli.str("cache-dir", "")));
}

/** One stderr line of cache effectiveness for non-local backends. */
void
printBackendSummary(const SweepResult &result)
{
    if (result.backend != "local")
        std::fprintf(stderr,
                     "backend %s: %zu/%zu cells answered from cache\n",
                     result.backend.c_str(), result.cacheHits,
                     result.simulations);
}

/** A scenario's cell count and how many it computed: a cell that
 *  recurs in the grid is computed once. */
void
printSweepSummary(const SweepResult &result)
{
    std::printf("scenario %s: %zu cells, %zu computed, %.0f ms\n",
                result.name.c_str(), result.simulations, result.computed,
                result.wallMs);
}

/** --json/--csv archiving: write @p render()'s text where --<flag>
 *  says ("1" selects @p dflt, the conventional BENCH_ name). */
void
archive(const Cli &cli, const char *flag, const std::string &dflt,
        const std::function<std::string()> &render)
{
    std::string path = cli.str(flag, "");
    if (path.empty())
        return;
    std::string target = path == "1" ? dflt : path;
    writeFileAtomic(target, render());
    std::printf("%s written to %s\n", flag, target.c_str());
}

void
maybeArchive(const Cli &cli, const SweepResult &result)
{
    archive(cli, "json", "BENCH_" + result.name + ".json",
            [&result] { return reportToJson(result); });
    archive(cli, "csv", "BENCH_" + result.name + ".csv",
            [&result] { return reportToCsv(result); });
}

/** Apply the standard --warm/--pipewarm/--detail staging flags onto
 *  @p dflt (shared by every `ltp` simulation command). */
RunLengths
stagingLengths(const Cli &cli, const RunLengths &dflt)
{
    RunLengths lengths = dflt;
    lengths.funcWarm = cli.integer("warm", lengths.funcWarm);
    lengths.pipeWarm = cli.integer("pipewarm", lengths.pipeWarm);
    lengths.detail = cli.integer("detail", lengths.detail);
    return lengths;
}

SamplePlan samplePlanFromCli(const Cli &cli, SamplePlan base);
ProgressFn sampleProgressFn(const Cli &cli, const std::string &name,
                            bool caching);

/** Commands without a positional must not silently swallow one. */
void
rejectPositional(const std::string &cmd, const std::string &positional)
{
    if (!positional.empty())
        fatal("ltp %s takes no positional argument, got '%s'",
              cmd.c_str(), positional.c_str());
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

int
cmdRun(const Cli &cli)
{
    SimConfig cfg = presetConfig(cli.str("preset", "baseline"), cli);
    cfg.seed = cli.integer("seed", 1);
    applySets(cfg, cli);

    std::vector<std::string> kernels =
        splitCommas(cli.str("kernel", "paper_loop"));
    if (kernels.empty())
        fatal("--kernel needs at least one kernel name");

    SweepSpec spec;
    spec.name = "run:" + cfg.name;
    spec.lengths = stagingLengths(cli, RunLengths::bench());
    for (const std::string &k : kernels)
        spec.add(k, cfg.name, cfg, k);

    SweepResult result =
        Runner(int(cli.integer("threads", 0)), makeBackend(cli))
            .run(spec);

    Table t({"kernel", "IPC", "CPI", "cycles", "parked", "LTP occ"});
    for (const std::string &k : kernels) {
        const Metrics &m = result.grid.at(k, cfg.name);
        t.addRow({k, Table::num(m.ipc, 4), Table::num(m.cpi, 4),
                  std::to_string(m.cycles),
                  Table::num(100.0 * m.parkedFrac, 1) + "%",
                  Table::num(m.ltpOcc, 1)});
    }
    t.print(strprintf("config %s (seed %llu)", cfg.name.c_str(),
                      static_cast<unsigned long long>(cfg.seed)));
    printBackendSummary(result);
    maybeArchive(cli, result);
    return 0;
}

/**
 * `ltp sweep --submit`: ship the scenario file to a serve daemon in
 * ONE `scenario` frame instead of compiling it locally — the daemon
 * compiles and runs it server-side (trace paths resolve against its
 * --trace-dir) and replies with the complete grid.  The shared
 * staging/seed/sampling flags edit the scenario JSON before it ships,
 * so the daemon compiles exactly what a local sweep with the same
 * flags would.
 */
int
cmdSubmitSweep(const std::string &path, const Cli &cli)
{
    if (cli.has("set"))
        fatal("--set is not supported with --submit; put the overrides "
              "in the scenario file");

    std::string text = readFile(path);
    JsonValue root;
    std::vector<std::string> views;
    RunLengths lengths;
    SamplePlan sampling;
    try {
        root = parseJson(text);
        if (!root.isObject())
            throw std::runtime_error("scenario root is not an object");
        // The daemon compiles the scenario; only its views render here.
        views = scenarioViews(root);
        // The flags below layer onto the file's blocks as
        // scenarioFromJson reads them (preset name or partial object).
        auto it = root.object.find("lengths");
        if (it != root.object.end())
            lengths = parseLengths(it->second, "lengths");
        it = root.object.find("sampling");
        if (it != root.object.end())
            sampling = parseSampling(it->second, "sampling");
    } catch (const std::runtime_error &e) {
        fatal("%s: %s", path.c_str(), e.what());
    }

    if (cli.has("seed"))
        root.object["seed"] = jsonU64(cli.integer("seed", 1));

    if (cli.has("warm") || cli.has("pipewarm") || cli.has("detail")) {
        lengths = stagingLengths(cli, lengths);
        root.object["lengths"] = lengthsTree(lengths);
    }

    sampling = samplePlanFromCli(cli, sampling);
    if (sampling.enabled())
        root.object["sampling"] = samplingTree(sampling);

    std::string host = "127.0.0.1";
    int port = kDefaultServePort;
    parseHostPort(cli.str("server", ""), &host, &port);
    ServeClientOptions topts;
    topts.replyTimeoutMs =
        int(cli.integer("server-timeout", topts.replyTimeoutMs));
    ServeBackend client(host, port, topts);
    // The daemon streams progress frames during the run; they feed the
    // heartbeat a local --progress sweep prints.
    auto name = root.object.find("name");
    if (ProgressFn progress = sampleProgressFn(
            cli, name != root.object.end() ? name->second.str : path,
            true))
        client.setProgressHandler([progress](std::uint64_t done,
                                             std::uint64_t total,
                                             std::uint64_t hits) {
            progress(Progress{std::size_t(done), std::size_t(total),
                              std::size_t(hits), ""});
        });
    SweepResult result = client.submitScenario(root);
    std::printf("scenario %s: ran on %s:%d (%zu simulations, %d "
                "daemon threads)\n",
                result.name.c_str(), host.c_str(), port,
                result.simulations, result.threads);
    std::fputs(renderViews(result, views).c_str(), stdout);
    printSweepSummary(result);
    printBackendSummary(result);
    maybeArchive(cli, result);
    return 0;
}

int
cmdSweep(const std::string &path, const Cli &cli)
{
    if (cli.flag("submit"))
        return cmdSubmitSweep(path, cli);

    Scenario scenario = loadScenarioFile(path);
    scenario.lengths = stagingLengths(cli, scenario.lengths);
    // Overrides the file's seed before compile, so it also reseeds the
    // panel classification (unlike --set seed=N, which applies after).
    if (cli.has("seed")) {
        scenario.seed = cli.integer("seed", scenario.seed);
        scenario.hasSeed = true;
    }

    int threads = int(cli.integer("threads", 0));
    ExecBackendPtr backend = makeBackend(cli);
    // The backend also serves the classification matrix a panels
    // scenario runs at compile time, so a warm cache answers the
    // whole invocation without simulating.
    SweepSpec spec = scenario.compile(threads, backend);

    // --set overrides apply to every job of the compiled spec; the
    // --samples/--sample-* flags override the scenario's sampling plan.
    for (SweepJob &job : spec.jobs)
        applySets(job.cfg, cli);
    spec.sampling = samplePlanFromCli(cli, spec.sampling);

    std::printf("scenario %s: %zu jobs, %zu simulations%s\n",
                spec.name.c_str(), spec.jobs.size(),
                spec.simulationCount(),
                spec.sampling.enabled()
                    ? strprintf(" (sampled, plan %s)",
                                spec.sampling.toString().c_str())
                          .c_str()
                    : "");
    // Heartbeat for long runs (serial and sharded alike).
    ProgressFn progress = sampleProgressFn(
        cli, spec.name, backend && backend->wantsKey());
    SweepResult result = Runner(threads, backend).run(spec, progress);
    std::fputs(renderViews(result, scenario.views).c_str(), stdout);
    printSweepSummary(result);
    printBackendSummary(result);
    maybeArchive(cli, result);
    return 0;
}

int
cmdBench(const Cli &cli)
{
    SimSpeedOptions opts;
    opts.quick = cli.flag("quick");
    opts.profile = cli.flag("profile");
    opts.reps = int(cli.integer("reps", 1));
    opts.seed = cli.integer("seed", 1);
    opts.lengths = stagingLengths(
        cli, opts.quick ? RunLengths::quick() : RunLengths::bench());

    // Scenario sweeps to time (their own staging plans); default is
    // the perf-trajectory anchor, fig6_iq_quick.
    std::vector<std::string> scenarios = cli.list("scenario");
    if (scenarios.empty())
        scenarios.push_back("scenarios/fig6_iq_quick.json");
    for (const std::string &path : scenarios) {
        if (!std::filesystem::exists(path))
            fatal("bench scenario not found: '%s' (run from the repo "
                  "root or pass --scenario=<path>)",
                  path.c_str());
        opts.scenarios.push_back(path);
    }
    // The SMT pairs sweep counts toward the total the perf-smoke gate
    // compares.  Like the fig6 default above, it is required when the
    // default cell list is in play — a missing file must not silently
    // punch a hole in the trajectory.
    if (cli.list("scenario").empty()) {
        const char *smt = "scenarios/smt_pairs.json";
        if (!std::filesystem::exists(smt))
            fatal("bench scenario not found: '%s' (run from the repo "
                  "root, or pass --scenario=<path> to choose the "
                  "cells explicitly)",
                  smt);
        opts.scenarios.push_back(smt);
    }

    std::string baseline = cli.str("baseline", "");
    SimSpeedReport report = runSimSpeedBench(opts);
    if (!baseline.empty())
        report.referenceKips = loadReferenceKips(baseline);

    Table t({"cell", "config", "sims", "insts", "wall ms", "kIPS"});
    auto addRows = [&](const std::vector<SimSpeedCell> &cells) {
        for (const SimSpeedCell &c : cells)
            t.addRow({c.label, c.config, std::to_string(c.simulations),
                      std::to_string(c.detailedInsts),
                      Table::num(c.wallMs, 1), Table::num(c.kips, 1)});
    };
    addRows(report.kernelCells);
    addRows(report.scenarioCells);
    t.print(strprintf("simulator throughput (%s, seed %llu): %.1f kIPS "
                      "over %llu detailed insts",
                      report.quick ? "quick" : "full",
                      static_cast<unsigned long long>(report.seed),
                      report.totalKips,
                      static_cast<unsigned long long>(report.totalInsts)));
    for (const SimSpeedCell &c : report.scenarioCells) {
        auto ref = report.referenceKips.find(c.label);
        if (ref != report.referenceKips.end() && ref->second > 0.0)
            std::printf("%s: %.1f kIPS vs %.1f reference = %.2fx\n",
                        c.label.c_str(), c.kips, ref->second,
                        c.kips / ref->second);
    }

    // --profile: per-stage wall-time attribution, aggregated over the
    // kernel cells of each config, so "which stage regressed, and
    // only under LTP?" is answerable from the bench output alone.
    if (opts.profile) {
        std::vector<std::string> cfgs;
        std::map<std::string, TickProfile> byCfg;
        for (const SimSpeedCell &c : report.kernelCells) {
            if (!c.profiled())
                continue;
            if (!byCfg.count(c.config))
                cfgs.push_back(c.config);
            byCfg[c.config].merge(c.profile);
        }
        std::vector<std::string> head = {"stage"};
        for (const std::string &cfg : cfgs) {
            head.push_back(cfg + " ms");
            head.push_back("%");
        }
        Table pt(head);
        for (int s = 0; s < TickProfile::kNumStages; ++s) {
            std::vector<std::string> row = {TickProfile::stageName(s)};
            for (const std::string &cfg : cfgs) {
                const TickProfile &p = byCfg[cfg];
                double ms = double(p.stageNs(s)) / 1e6;
                double pct = p.totalNs() ? 100.0 * double(p.stageNs(s)) /
                                               double(p.totalNs())
                                         : 0.0;
                row.push_back(Table::num(ms, 1));
                row.push_back(Table::num(pct, 1));
            }
            pt.addRow(row);
        }
        std::uint64_t clock_ns =
            cfgs.empty() ? 0 : byCfg[cfgs.front()].clockNs;
        pt.print(strprintf("per-stage tick attribution (kernel cells, "
                           "aggregated per config; 1 tick in %llu "
                           "timed, %llu ns clock read taken off each "
                           "lap)",
                           static_cast<unsigned long long>(
                               TickProfile::kPeriod),
                           static_cast<unsigned long long>(clock_ns)));
    }

    archive(cli, "json", "BENCH_simspeed.json",
            [&report] { return report.toJson(); });

    if (cli.flag("check")) {
        if (baseline.empty())
            fatal("bench --check needs --baseline=<file>");
        if (!checkSimSpeedBaseline(report, baseline))
            return 1;
    }
    return 0;
}

/** The DSL kernels a `record` target names: a kernel list, 'all', or
 *  every (non-trace) kernel a scenario file's compiled spec touches. */
std::vector<std::string>
recordTargets(const std::string &what, const Cli &cli,
              RunLengths &lengths, std::uint64_t &seed)
{
    if (what == "all") {
        std::vector<std::string> kernels;
        for (const SuiteEntry &e : kernelSuite())
            kernels.push_back(e.name);
        return kernels;
    }
    if (what.size() > 5 && what.compare(what.size() - 5, 5, ".json") == 0) {
        Scenario scenario;
        try {
            scenario = loadScenarioFile(what);
        } catch (const std::runtime_error &e) {
            // A scenario that replays traces validates them eagerly —
            // which cannot succeed before they exist.  Point at the
            // bootstrap path instead of just echoing the parse error.
            if (std::string(e.what()).find(".lttr") != std::string::npos)
                fatal("%s\n(`ltp record <scenario>` records the DSL "
                      "kernels a scenario touches; it cannot bootstrap "
                      "a scenario that replays traces — record their "
                      "source kernels directly: ltp record "
                      "<kernel,...> --out=<dir>)",
                      e.what());
            throw;
        }
        // The scenario's own staging/seed become the recording defaults
        // (still overridable by the standard flags).
        lengths = stagingLengths(cli, scenario.lengths);
        if (!cli.has("seed"))
            seed = scenario.seed;
        SweepSpec spec = scenario.compile(int(cli.integer("threads", 0)),
                                          makeBackend(cli));
        std::set<std::string> uniq;
        for (const SweepJob &job : spec.jobs)
            for (const std::string &k : job.kernels) {
                // SMT tuples decompose into their member kernels:
                // traces are per-thread streams, so a pairs scenario
                // records each co-runner separately.
                std::vector<std::string> members =
                    isSmtName(k) ? smtMembers(k)
                                 : std::vector<std::string>{k};
                for (const std::string &member : members)
                    if (!isTraceName(member))
                        uniq.insert(member);
            }
        if (uniq.empty())
            fatal("scenario '%s' references no DSL kernels to record",
                  what.c_str());
        return std::vector<std::string>(uniq.begin(), uniq.end());
    }
    return splitCommas(what);
}

int
cmdRecord(const std::string &what, const Cli &cli)
{
    if (what.empty())
        fatal("record needs a target: ltp record "
              "<kernel[,kernel...]|scenario.json|all> --out=<dir>");
    std::string out_dir = cli.str("out", "");
    if (out_dir.empty())
        fatal("record needs --out=<dir> for the .lttr files");

    RunLengths lengths = stagingLengths(cli, RunLengths::bench());
    std::uint64_t seed = cli.integer("seed", 1);
    std::vector<std::string> kernels =
        recordTargets(what, cli, lengths, seed);

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec)
        fatal("cannot create '%s': %s", out_dir.c_str(),
              ec.message().c_str());

    Table t({"kernel", "file", "records", "bytes"});
    for (const std::string &kernel : kernels) {
        TraceInfo info;
        info.kernel = kernel;
        info.seed = seed;
        info.funcWarm = lengths.funcWarm;
        info.pipeWarm = lengths.pipeWarm;
        info.detail = lengths.detail;
        std::string path = out_dir + "/" + kernel + ".lttr";
        std::string bytes = recordTrace(info);
        writeFileAtomic(path, bytes);
        t.addRow({kernel, path, std::to_string(info.recordLength()),
                  std::to_string(bytes.size())});
    }
    t.print(strprintf("recorded %zu trace(s), seed %llu, staging "
                      "%llu/%llu/%llu (+%llu slack)",
                      kernels.size(),
                      static_cast<unsigned long long>(seed),
                      static_cast<unsigned long long>(lengths.funcWarm),
                      static_cast<unsigned long long>(lengths.pipeWarm),
                      static_cast<unsigned long long>(lengths.detail),
                      static_cast<unsigned long long>(kTraceFetchSlack)));
    return 0;
}

int
cmdReplay(const std::string &what, const Cli &cli)
{
    namespace fs = std::filesystem;
    if (what.empty())
        fatal("replay needs a trace: ltp replay <trace.lttr|dir>");

    std::vector<std::string> paths;
    if (fs::is_directory(what)) {
        for (const auto &entry : fs::directory_iterator(what))
            if (entry.path().extension() == ".lttr")
                paths.push_back(entry.path().string());
        std::sort(paths.begin(), paths.end());
        if (paths.empty())
            fatal("no .lttr files under '%s'", what.c_str());
    } else {
        paths.push_back(what);
    }

    bool verify = cli.flag("verify");
    SimConfig base_cfg = presetConfig(cli.str("preset", "baseline"), cli);
    applySets(base_cfg, cli);
    // Like --seed below, `--set seed=N` cannot re-seed a recorded
    // stream; reject it instead of silently mislabelling results.
    for (const std::string &kv : cli.list("set"))
        if (kv.rfind("seed=", 0) == 0)
            fatal("replay cannot re-seed a recorded stream; drop "
                  "'--set %s' (re-record with the desired seed)",
                  kv.c_str());

    std::vector<std::string> header = {"trace", "kernel", "IPC",
                                       "cycles", "parked"};
    if (verify)
        header.push_back("verify");
    Table t(header);

    int failures = 0;
    for (const std::string &path : paths) {
        std::shared_ptr<const TraceReader> trace = loadTraceCached(path);
        const TraceInfo &info = trace->info();

        // Defaults reproduce the recording run exactly: the recorded
        // staging plan and seed, unless explicitly overridden.
        RunLengths recorded;
        recorded.funcWarm = info.funcWarm;
        recorded.pipeWarm = info.pipeWarm;
        recorded.detail = info.detail;
        RunLengths lengths = stagingLengths(cli, recorded);
        SimConfig cfg = base_cfg;
        cfg.seed = info.seed;
        // The recorded stream cannot be re-seeded, so a conflicting
        // --seed could only mislabel results (and with --verify would
        // compare against a differently-seeded execute run — a
        // guaranteed false mismatch).  Reject it outright.
        if (cli.has("seed") &&
            std::uint64_t(cli.integer("seed", 1)) != info.seed)
            fatal("--seed=%llu conflicts with the seed %llu recorded "
                  "in '%s'; re-record with the desired seed",
                  static_cast<unsigned long long>(
                      cli.integer("seed", 1)),
                  static_cast<unsigned long long>(info.seed),
                  path.c_str());

        Metrics replayed =
            Simulator::runOnce(cfg, traceName(path), lengths);
        std::vector<std::string> row = {
            traceLabel(path), info.kernel, Table::num(replayed.ipc, 4),
            std::to_string(replayed.cycles),
            Table::num(100.0 * replayed.parkedFrac, 1) + "%"};
        if (verify) {
            Metrics executed =
                Simulator::runOnce(cfg, info.kernel, lengths);
            bool ok =
                metricsToJson(replayed) == metricsToJson(executed);
            row.push_back(ok ? "OK" : "MISMATCH");
            if (!ok) {
                failures += 1;
                std::fprintf(stderr,
                             "replay mismatch for %s:\n"
                             "--- replayed ---\n%s\n"
                             "--- executed ---\n%s\n",
                             path.c_str(),
                             metricsToJson(replayed).c_str(),
                             metricsToJson(executed).c_str());
            }
        }
        t.addRow(std::move(row));
    }
    t.print(strprintf("replay of %zu trace(s), config %s%s",
                      paths.size(), base_cfg.name.c_str(),
                      verify ? " (verified against execute mode)" : ""));
    if (failures) {
        std::fprintf(stderr,
                     "replay: %d trace(s) diverged from execute mode\n",
                     failures);
        return 1;
    }
    return 0;
}

int
cmdListKernels()
{
    Table t({"kernel", "intent"});
    for (const SuiteEntry &e : kernelSuite()) {
        const char *intent =
            e.intent == MlpIntent::Sensitive
                ? "mlp-sensitive"
                : e.intent == MlpIntent::Insensitive ? "mlp-insensitive"
                                                     : "example";
        t.addRow({e.name, intent});
    }
    t.print("registered kernel suite");
    return 0;
}

int
cmdClassify(const Cli &cli)
{
    RunLengths lengths = stagingLengths(cli, RunLengths::bench());
    std::uint64_t seed = cli.integer("seed", 1);
    int threads = int(cli.integer("threads", 0));

    Panels p = classifyPanels(lengths, seed, threads, makeBackend(cli));
    Table t({"kernel", "class", "speedup", "outstanding x",
             "avg load lat"});
    for (const auto &d : p.groups.details)
        t.addRow({d.kernel, d.sensitive ? "SENSITIVE" : "insensitive",
                  Table::num(d.speedup, 2),
                  Table::num(d.outstandingRatio, 2),
                  Table::num(d.avgLoadLatency, 1)});
    t.print("Section 4.1 classification (IQ32 vs IQ256)");

    archive(cli, "csv", "BENCH_classify.csv", [&t] { return t.toCsv(); });
    archive(cli, "json", "BENCH_classify.json", [&p] {
        JsonValue out = jsonArray();
        for (const MlpClassification &d : p.groups.details)
            out.array.push_back(jsonObject(
                {{"kernel", jsonStr(d.kernel)},
                 {"sensitive", jsonBool(d.sensitive)},
                 {"speedup", jsonDouble(d.speedup)},
                 {"outstandingRatio", jsonDouble(d.outstandingRatio)},
                 {"avgLoadLatency", jsonDouble(d.avgLoadLatency)}}));
        return writeJson(out) + "\n";
    });
    return 0;
}

/** The sampling plan the shared --samples/--sample-* flags select,
 *  layered over @p base, or over the defaults if @p base is disabled
 *  (as `ltp sample` reads them); no such flag returns @p base. */
SamplePlan
samplePlanFromCli(const Cli &cli, SamplePlan base)
{
    if (!cli.has("samples") && !cli.has("sample-ff") &&
        !cli.has("sample-warmup") && !cli.has("sample-detail"))
        return base;
    if (!base.enabled())
        base = SamplePlan::defaults();
    if (cli.has("samples"))
        base.samples = int(cli.integer("samples", base.samples));
    if (cli.has("sample-ff"))
        base.fastForward =
            std::uint64_t(cli.integer("sample-ff", 0));
    if (cli.has("sample-warmup"))
        base.warmup = std::uint64_t(cli.integer("sample-warmup", 0));
    if (cli.has("sample-detail"))
        base.detail = std::uint64_t(cli.integer("sample-detail", 0));
    return base;
}

/** Phase-labelled stderr heartbeat shared by sample and sweep. */
ProgressFn
sampleProgressFn(const Cli &cli, const std::string &name, bool caching)
{
    if (!cli.flag("progress"))
        return {};
    auto start = std::chrono::steady_clock::now();
    return [start, name, caching](const Progress &p) {
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        std::string hits = caching ? strprintf(", %zu hits", p.hits) : "";
        std::string phase =
            p.phase.empty() ? "" : " [" + p.phase + "]";
        // The trailing spaces wipe a longer previous phase label.
        std::fprintf(stderr,
                     "\r%s: %zu/%zu cells%s, %.1fs elapsed%s      %s",
                     name.c_str(), p.done, p.total, hits.c_str(), secs,
                     phase.c_str(), p.done == p.total ? "\n" : "");
        std::fflush(stderr);
    };
}

/** Gate a sampled report against a full-detail one (CI smoke). */
int
cmdSampleCompare(const Cli &cli)
{
    std::string full_path = cli.str("full", "");
    std::string sampled_path = cli.str("sampled", "");
    if (full_path.empty() || sampled_path.empty())
        fatal("sample compare needs --full=<report.json> and "
              "--sampled=<report.json> (both from --json=<file>)");
    double min_speedup = cli.real("min-speedup", 0.0);
    double rtol = cli.real("rtol", 0.05);

    struct Report
    {
        double wallMs = 0.0;
        std::map<std::string, Metrics> cells; ///< "row|series" keyed
    };
    auto load = [](const std::string &path) {
        Report r;
        std::string text = readFile(path);
        JsonValue root;
        try {
            root = parseJson(text);
        } catch (const std::runtime_error &e) {
            fatal("%s: %s", path.c_str(), e.what());
        }
        if (!root.isObject())
            fatal("%s: not a JSON report", path.c_str());
        auto wall = root.object.find("wall_ms");
        if (wall != root.object.end() && wall->second.isNumber())
            r.wallMs = wall->second.num;
        auto results = root.object.find("results");
        if (results == root.object.end() ||
            !results->second.isArray())
            fatal("%s: missing 'results' array", path.c_str());
        for (const JsonValue &cell : results->second.array) {
            if (!cell.isObject())
                fatal("%s: non-object result cell", path.c_str());
            auto get = [&](const char *key) -> const JsonValue & {
                auto it = cell.object.find(key);
                if (it == cell.object.end())
                    fatal("%s: result cell missing '%s'", path.c_str(),
                          key);
                return it->second;
            };
            r.cells[get("row").str + "|" + get("series").str] =
                metricsFromJson(get("metrics"));
        }
        return r;
    };
    Report full = load(full_path);
    Report sampled = load(sampled_path);
    if (full.cells.empty())
        fatal("%s holds no result cells", full_path.c_str());

    // The gate covers the whole grid: a report that holds only some
    // of the cells must not pass on the ones it happens to hold.
    auto absentFrom = [](const Report &from, const Report &in) {
        std::string keys;
        for (const auto &[key, m] : from.cells)
            if (!in.cells.count(key))
                keys += (keys.empty() ? "'" : ", '") + key + "'";
        return keys;
    };
    if (std::string keys = absentFrom(full, sampled); !keys.empty())
        fatal("%s lacks cells that %s holds: %s", sampled_path.c_str(),
              full_path.c_str(), keys.c_str());
    if (std::string keys = absentFrom(sampled, full); !keys.empty())
        fatal("%s holds cells that %s lacks: %s", sampled_path.c_str(),
              full_path.c_str(), keys.c_str());

    Table t({"cell", "full IPC", "sampled IPC", "ci95", "tolerance",
             "state"});
    int failures = 0;
    for (const auto &[key, sm] : sampled.cells) {
        const Metrics &fm = full.cells.at(key);
        if (!sm.sampling.enabled())
            fatal("cell '%s' in %s has no sampling block — --sampled "
                  "takes a report swept with --samples",
                  key.c_str(), sampled_path.c_str());
        // Gating a sampled cell is a statistical statement; a cell
        // with no interval (--samples=1) cannot make one, so refuse
        // outright rather than trivially passing on the rtol floor.
        if (!sm.sampling.hasCi())
            fatal("cell '%s' in %s has no confidence interval "
                  "(%d sample%s) — rerun with --samples>=2 to gate "
                  "a sampled result",
                  key.c_str(), sampled_path.c_str(),
                  sm.sampling.samples,
                  sm.sampling.samples == 1 ? "" : "s");
        double sampled_ipc = sm.sampling.meanIpc;
        // The statistical tolerance is the sample CI; the rtol floor
        // covers low-variance runs whose CI collapses below the bias
        // the phase model introduces (cold-start, period alignment).
        double tol = std::max(sm.sampling.ci95Half, rtol * fm.ipc);
        bool ok = std::fabs(sampled_ipc - fm.ipc) <= tol;
        failures += ok ? 0 : 1;
        t.addRow({key, Table::num(fm.ipc, 4), Table::num(sampled_ipc, 4),
                  Table::num(sm.sampling.ci95Half, 4),
                  Table::num(tol, 4), ok ? "ok" : "OUT OF TOLERANCE"});
    }
    double speedup =
        sampled.wallMs > 0.0 ? full.wallMs / sampled.wallMs : 0.0;
    t.print(strprintf("sampled vs full: %zu cells, wall %.0f ms vs "
                      "%.0f ms = %.2fx",
                      sampled.cells.size(), sampled.wallMs, full.wallMs,
                      speedup));
    if (failures) {
        std::fprintf(stderr,
                     "sample compare: %d cell(s) out of tolerance\n",
                     failures);
        return 1;
    }
    if (min_speedup > 0.0 && speedup < min_speedup) {
        std::fprintf(stderr,
                     "sample compare: speedup %.2fx below required "
                     "%.2fx\n",
                     speedup, min_speedup);
        return 1;
    }
    return 0;
}

int
cmdSample(const std::string &positional, const Cli &cli)
{
    if (positional == "compare")
        return cmdSampleCompare(cli);

    std::string what =
        positional.empty() ? cli.str("kernel", "") : positional;
    if (what.empty())
        fatal("sample needs a workload: ltp sample <kernel[,kernel...]>"
              " (or `ltp sample compare --full=... --sampled=...`)");
    std::vector<std::string> kernels = splitCommas(what);

    SimConfig cfg = presetConfig(cli.str("preset", "baseline"), cli);
    cfg.seed = cli.integer("seed", 1);
    applySets(cfg, cli);

    SamplePlan plan = samplePlanFromCli(cli, SamplePlan::defaults());
    if (plan.samples <= 0 || plan.detail == 0)
        fatal("sampling needs --samples > 0 and --sample-detail > 0 "
              "(got %s)", plan.toString().c_str());

    std::string from = cli.str("from", "");
    SweepResult result;
    if (!from.empty()) {
        // Checkpoint restore binds the run to one concrete stream
        // state, so it bypasses the backends (a cached or remote cell
        // could not see the local file) and runs in-process.
        if (kernels.size() != 1)
            fatal("sample --from restores one workload, got %zu",
                  kernels.size());
        auto start = std::chrono::steady_clock::now();
        Checkpoint ckpt = loadCheckpointFile(from);
        Sampler sampler(cfg, kernels[0], plan);
        sampler.restoreFrom(ckpt);
        ProgressFn progress =
            sampleProgressFn(cli, "sample:" + cfg.name, false);
        PhaseFn phase;
        if (progress)
            phase = [&progress](const std::string &p) {
                progress(Progress{0, 1, 0, p});
            };
        Metrics m = sampler.run(phase);
        if (progress)
            progress(Progress{1, 1, 0, ""});
        result.grid.put(kernels[0], cfg.name, m);
        result.name = "sample:" + cfg.name;
        result.threads = 1;
        result.backend = "local";
        result.simulations = 1;
        result.wallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    } else {
        SweepSpec spec;
        spec.name = "sample:" + cfg.name;
        spec.lengths = stagingLengths(cli, RunLengths::bench());
        spec.sampling = plan;
        for (const std::string &k : kernels)
            spec.add(k, cfg.name, cfg, k);
        ExecBackendPtr backend = makeBackend(cli);
        bool caching = backend && backend->wantsKey();
        result = Runner(int(cli.integer("threads", 0)), backend)
                     .run(spec, sampleProgressFn(cli, spec.name,
                                                 caching));
    }

    Table t({"kernel", "samples", "mean IPC", "±95% CI", "stddev",
             "ff kIPS"});
    for (const std::string &k : kernels) {
        const Metrics &m = result.grid.at(k, cfg.name);
        bool ci = m.sampling.hasCi();
        t.addRow({k, std::to_string(m.sampling.samples),
                  Table::num(m.sampling.meanIpc, 4),
                  ci ? Table::num(m.sampling.ci95Half, 4) : "n/a",
                  ci ? Table::num(m.sampling.ipcStdDev, 4) : "n/a",
                  Table::num(m.sampling.ffKips, 0)});
    }
    t.print(strprintf("sampled %s (plan %s, seed %llu, %.0f ms)",
                      cfg.name.c_str(), plan.toString().c_str(),
                      static_cast<unsigned long long>(cfg.seed),
                      result.wallMs));
    printBackendSummary(result);
    maybeArchive(cli, result);
    return 0;
}

int
cmdCheckpoint(const std::string &action, const Cli &cli)
{
    if (action == "create") {
        std::string kernel = cli.str("kernel", "");
        if (kernel.empty())
            fatal("checkpoint create needs --kernel=<workload>");
        std::string out = cli.str("out", "");
        if (out.empty())
            fatal("checkpoint create needs --out=<file.ltcp>");
        std::uint64_t at = std::uint64_t(cli.integer("at", 0));
        if (at == 0)
            fatal("checkpoint create needs --at=<instructions> > 0");

        SimConfig cfg = presetConfig(cli.str("preset", "baseline"), cli);
        cfg.seed = cli.integer("seed", 1);
        applySets(cfg, cli);
        std::vector<std::string> members =
            resolveWorkloadMembers(cfg, kernel);
        MemSystem mem(cfg.mem);
        FastForward ff(cfg, members, mem);
        ff.advanceTo(at);
        std::string name = ff.stream(0).name();
        for (int tid = 1; tid < ff.numThreads(); ++tid)
            name += "+" + ff.stream(tid).name();
        Checkpoint ckpt = captureCheckpoint(ff, mem, name, cfg.seed);
        std::string bytes = checkpointToBytes(ckpt);
        writeFileAtomic(out, bytes);
        std::printf("%s: %s (%zu bytes, fast-forward %.0f kIPS)\n",
                    out.c_str(), checkpointSummary(ckpt).c_str(),
                    bytes.size(), ff.kips());
        return 0;
    }
    if (action == "ls" || action == "verify") {
        std::string file = cli.str("file", "");
        if (file.empty())
            fatal("checkpoint %s needs --file=<file.ltcp>",
                  action.c_str());
        std::string bytes = readFile(file);
        Checkpoint ckpt = checkpointFromBytes(bytes);
        if (action == "ls") {
            std::printf("%s: %s\n", file.c_str(),
                        checkpointSummary(ckpt).c_str());
            return 0;
        }
        // verify: the decode above already validated magic,
        // version, CRC, and semantics; a byte-exact re-encode
        // proves the file is canonical (no mutation survives).
        if (checkpointToBytes(ckpt) != bytes) {
            std::fprintf(stderr,
                         "%s: decodes but re-encodes differently "
                         "(non-canonical)\n",
                         file.c_str());
            return 1;
        }
        std::printf("%s: OK (%zu bytes, CRC + round-trip verified)\n",
                    file.c_str(), bytes.size());
        return 0;
    }
    fatal("unknown checkpoint action '%s' (expected create|ls|verify)",
          action.c_str());
}

int
cmdCache(const std::string &action, const Cli &cli)
{
    ResultCache cache(cli.str("cache-dir", ""));

    if (action.empty() || action == "stat") {
        CacheStats s = cache.stats();
        std::printf("cache %s: %llu entries (%llu invalid), %llu "
                    "bytes\n",
                    cache.dir().c_str(),
                    static_cast<unsigned long long>(s.entries),
                    static_cast<unsigned long long>(s.invalid),
                    static_cast<unsigned long long>(s.bytes));
        return 0;
    }
    if (action == "ls") {
        Table t({"key", "config", "workload", "staging", "bytes",
                 "state"});
        for (const CacheEntryInfo &e : cache.list())
            t.addRow({e.key.substr(0, 12), e.config, e.workload,
                      strprintf("%llu/%llu/%llu",
                                static_cast<unsigned long long>(
                                    e.funcWarm),
                                static_cast<unsigned long long>(
                                    e.pipeWarm),
                                static_cast<unsigned long long>(
                                    e.detail)),
                      std::to_string(e.bytes),
                      !e.valid                          ? "INVALID"
                      : e.model == modelFingerprint() ? "ok"
                                                        : "other model"});
        t.print(strprintf("result cache at %s", cache.dir().c_str()));
        return 0;
    }
    if (action == "gc") {
        double days = cli.real("max-age-days", 0.0);
        std::uint64_t max_bytes =
            std::uint64_t(cli.integer("max-bytes", 0));
        bool other_models = cli.flag("other-models");
        std::size_t removed = cache.gc(days, max_bytes, other_models);
        std::string why = " (invalid";
        if (other_models)
            why += ", other models";
        if (days > 0.0)
            why += strprintf(", older than %g days", days);
        if (max_bytes > 0)
            why += strprintf(", evicted down to %llu bytes",
                             static_cast<unsigned long long>(max_bytes));
        why += ")";
        std::printf("cache gc: removed %zu entr%s%s\n", removed,
                    removed == 1 ? "y" : "ies", why.c_str());
        return 0;
    }
    if (action == "clear") {
        std::size_t removed = cache.clear();
        std::printf("cache clear: removed %zu entr%s from %s\n",
                    removed, removed == 1 ? "y" : "ies",
                    cache.dir().c_str());
        return 0;
    }
    fatal("unknown cache action '%s' (expected ls|stat|gc|clear)",
          action.c_str());
}

int
cmdServe(const std::string &action, const Cli &cli)
{
    if (!action.empty()) {
        // Control plane: one-shot RPCs against a running daemon.
        if (action != "ping" && action != "stats" && action != "stop")
            fatal("unknown serve action '%s' (expected ping|stats|stop "
                  "or no action to run the daemon)",
                  action.c_str());
        std::string host = "127.0.0.1";
        int port = int(cli.integer("port", kDefaultServePort));
        parseHostPort(cli.str("server", ""), &host, &port);
        ServeClientOptions topts;
        topts.replyTimeoutMs =
            int(cli.integer("server-timeout", topts.replyTimeoutMs));
        ServeBackend client(host, port, topts);
        JsonValue reply =
            client.rpc(action == "stop" ? "shutdown" : action);
        reply.object.erase("id");
        // The per-worker counters read better as a table; keep the
        // machine-readable JSON to the scalar fields.
        JsonValue workers;
        auto wIt = reply.object.find("workers");
        if (wIt != reply.object.end() && wIt->second.isArray()) {
            workers = std::move(wIt->second);
            reply.object.erase("workers");
        }
        std::printf("%s\n", writeJson(reply).c_str());
        if (workers.isArray()) {
            Table t({"worker", "capacity", "up", "dispatched",
                     "completed", "retried", "failed",
                     "peer hits"});
            for (const JsonValue &w : workers.array) {
                auto f = [&w](const char *key) -> std::string {
                    auto it = w.object.find(key);
                    if (it == w.object.end())
                        return "-";
                    if (it->second.isBool())
                        return it->second.boolean ? "yes" : "NO";
                    return it->second.str;
                };
                t.addRow({f("worker"), f("capacity"), f("up"),
                          f("dispatched"), f("completed"),
                          f("retried"), f("failed"),
                          f("peerHits")});
            }
            t.print("remote workers");
        }
        if (action == "stop") {
            auto dIt = reply.object.find("drained");
            if (dIt != reply.object.end() &&
                dIt->second.isNumber() && dIt->second.num > 0)
                std::printf("drained %s in-flight cell(s) before "
                            "shutdown\n",
                            dIt->second.str.c_str());
        }
        return 0;
    }

    ServeOptions opts;
    opts.port = int(cli.integer("port", kDefaultServePort));
    opts.threads = int(cli.integer("threads", 0));
    opts.cacheDir = cli.str("cache-dir", "");
    opts.useCache = !cli.flag("no-cache");
    opts.quiet = cli.flag("quiet");
    opts.workers = cli.list("worker");
    std::string workers_file = cli.str("workers", "");
    if (!workers_file.empty())
        for (const std::string &w : loadWorkerSpecs(workers_file))
            opts.workers.push_back(w);
    opts.traceDir = cli.str("trace-dir", "");
    opts.drainTimeoutMs =
        int(cli.integer("drain-timeout", opts.drainTimeoutMs));
    Server server(opts);
    server.start();
    server.waitForShutdown();
    server.stop();
    return 0;
}

int
cmdPrintConfig(const std::string &preset, const Cli &cli)
{
    if (cli.flag("paths")) {
        for (const std::string &p : configPaths())
            std::printf("%s\n", p.c_str());
        return 0;
    }
    if (preset.empty())
        fatal("print-config needs a preset "
              "(baseline|ltpProposal|limitStudy) or --paths");
    SimConfig cfg = presetConfig(preset, cli);
    applySets(cfg, cli);
    std::printf("%s\n", configToJson(cfg).c_str());
    return 0;
}

int
runCommand(int argc, char **argv)
{
    if (argc < 2)
        return usage(1);
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help")
        return usage(0);

    // Extract at most one positional argument, applying the same
    // `--key value` consumption rule Cli uses so a bare token after a
    // valueless flag is read as that flag's value, not the positional.
    // Boolean switches never take a value, so a bare token after one
    // (e.g. `ltp replay --verify traces/`) stays the positional.
    const std::set<std::string> boolean_flags = {
        "--verify", "--paths", "--progress", "--quick", "--check",
        "--no-cache", "--quiet", "--submit", "--other-models"};
    std::string positional;
    std::vector<char *> args;
    std::string prog = std::string(argv[0]) + " " + cmd;
    args.push_back(prog.data());
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0 || arg == "-h") {
            args.push_back(argv[i]);
            // `--key value`: the next bare token belongs to the flag.
            if (arg.rfind('=') == std::string::npos && arg != "-h" &&
                !boolean_flags.count(arg) && i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0)
                args.push_back(argv[++i]);
            continue;
        }
        if (!positional.empty()) {
            std::fprintf(stderr,
                         "ltp %s: unexpected extra argument '%s' "
                         "(already got '%s')\n",
                         cmd.c_str(), argv[i], positional.c_str());
            return 1;
        }
        positional = arg;
    }
    int nargs = static_cast<int>(args.size());

    // Every subcommand accepts the same global flag set through the
    // same parser — staging, seed, threading, archiving, overrides,
    // and the execution-backend/caching flags — so a flag learned on
    // one command works on all of them (commands that have no use for
    // a given global simply don't consult it).
    const std::set<std::string> global = {
        "warm",     "pipewarm",  "detail", "seed",    "threads",
        "set",      "json",      "csv",    "no-cache", "cache-dir",
        "backend",  "server",    "server-timeout"};
    auto flags = [&](std::set<std::string> extra) {
        extra.insert(global.begin(), global.end());
        return extra;
    };

    if (cmd == "run") {
        Cli cli(nargs, args.data(),
                flags({"preset", "mode", "kernel"}),
                "ltp run — simulate one config over kernels");
        rejectPositional(cmd, positional);
        return cmdRun(cli);
    }
    if (cmd == "sweep") {
        Cli cli(nargs, args.data(),
                flags({"progress", "samples", "sample-ff",
                       "sample-warmup", "sample-detail", "submit"}),
                "ltp sweep <scenario.json> — compile and run a "
                "scenario file; --samples/--sample-* override the "
                "scenario's sampling plan; --submit ships the whole "
                "scenario to an `ltp serve` daemon (--server=host:port) "
                "in one request");
        if (positional.empty())
            fatal("sweep needs a scenario file: ltp sweep "
                  "<scenario.json>");
        return cmdSweep(positional, cli);
    }
    if (cmd == "bench") {
        Cli cli(nargs, args.data(),
                flags({"quick", "scenario", "baseline", "check",
                       "profile", "reps"}),
                "ltp bench — measure simulator throughput (kIPS) and "
                "write BENCH_simspeed.json; --baseline + --check fails "
                "on >25% regression (always runs in-process and "
                "uncached: it times the simulator, not the cache).\n"
                "--reps=N keeps the best-of-N wall time per cell "
                "(strips host scheduler noise from ~25 ms cells; the "
                "committed artifact uses --reps=3).\n"
                "--profile attributes each kernel cell's tick time to "
                "pipeline stages, sampling 1 tick in 61 (table + JSON "
                "`profile` blocks)");
        rejectPositional(cmd, positional);
        return cmdBench(cli);
    }
    if (cmd == "record") {
        Cli cli(nargs, args.data(), flags({"out"}),
                "ltp record <kernel[,kernel...]|scenario.json|all> "
                "--out=<dir> — record .lttr micro-op traces");
        return cmdRecord(positional, cli);
    }
    if (cmd == "replay") {
        Cli cli(nargs, args.data(),
                flags({"preset", "mode", "verify"}),
                "ltp replay <trace.lttr|dir> — replay recorded traces; "
                "--verify diffs the Metrics against execute mode");
        return cmdReplay(positional, cli);
    }
    if (cmd == "list-kernels") {
        Cli cli(nargs, args.data(), flags({}),
                "ltp list-kernels — print the registered kernel suite");
        rejectPositional(cmd, positional);
        return cmdListKernels();
    }
    if (cmd == "classify") {
        Cli cli(nargs, args.data(), flags({}),
                "ltp classify — Section 4.1 MLP-sensitivity "
                "classification");
        rejectPositional(cmd, positional);
        return cmdClassify(cli);
    }
    if (cmd == "print-config") {
        Cli cli(nargs, args.data(), flags({"mode", "paths"}),
                "ltp print-config <preset> — print a preset's config "
                "as JSON");
        return cmdPrintConfig(positional, cli);
    }
    if (cmd == "sample") {
        Cli cli(nargs, args.data(),
                flags({"preset", "mode", "kernel", "samples",
                       "sample-ff", "sample-warmup", "sample-detail",
                       "from", "progress", "full", "sampled",
                       "min-speedup", "rtol"}),
                "ltp sample <kernel[,kernel...]> — interval-sampled "
                "simulation (mean IPC + 95% CI); --samples/--sample-ff/"
                "--sample-warmup/--sample-detail set the plan, "
                "--from=<file.ltcp> restores a checkpoint; `ltp sample "
                "compare --full=a.json --sampled=b.json "
                "[--min-speedup=N --rtol=X]` gates a sampled report "
                "against a full-detail one");
        return cmdSample(positional, cli);
    }
    if (cmd == "checkpoint") {
        Cli cli(nargs, args.data(),
                flags({"preset", "mode", "kernel", "at", "out", "file"}),
                "ltp checkpoint <create|ls|verify> — architectural "
                ".ltcp checkpoints: create --kernel=<w> --at=<insts> "
                "--out=<file>; ls/verify take --file=<file>");
        return cmdCheckpoint(positional, cli);
    }
    if (cmd == "cache") {
        Cli cli(nargs, args.data(),
                flags({"max-age-days", "max-bytes", "other-models"}),
                "ltp cache <ls|stat|gc|clear> — inspect or prune the "
                "content-addressed result cache; --cache-dir selects "
                "the root, gc takes --max-age-days=N, "
                "--max-bytes=N (oldest-first size eviction) and "
                "--other-models (also drop entries another build "
                "stored)");
        return cmdCache(positional, cli);
    }
    if (cmd == "serve") {
        Cli cli(nargs, args.data(),
                flags({"port", "quiet", "worker", "workers",
                       "trace-dir", "drain-timeout"}),
                "ltp serve [ping|stats|stop] — run the shared "
                "simulation daemon (no action), or control a running "
                "one; --port/--server address it, --threads sizes the "
                "pool, --no-cache disables the shared result cache.\n"
                "Distributed mode: repeatable --worker=host:port (or "
                "--workers=<file>, one host:port per line) fans cells "
                "out to remote worker daemons; --trace-dir resolves "
                "submitted scenarios' trace paths; --drain-timeout=<ms> "
                "bounds the graceful shutdown drain (default 10000)");
        return cmdServe(positional, cli);
    }

    std::fprintf(stderr, "ltp: unknown command '%s'\n\n", cmd.c_str());
    return usage(1);
}

} // namespace

int
main(int argc, char **argv)
{
    // Library errors arrive as exceptions, from this thread or from a
    // Runner worker's future; every command reports them alike, as one
    // fatal line and exit status 1.
    try {
        return runCommand(argc, argv);
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }
}
