/**
 * @file
 * Tests for the scenario layer: parse errors naming the offending JSON
 * path, declarative compilation onto SweepSpec (base rows, path-array
 * sweeps), the explicit-jobs export round trip, the views renderer, the
 * golden equivalence of the Figure 6 scenario files with the in-C++
 * Figure 6 SweepSpec — including bit-identical Metrics for every
 * (row, series) cell with the scenario side sharded across threads —
 * and the pinned shape of every file under scenarios/.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "sim/exec_backend.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "trace/trace_file.hh"

#ifndef LTP_SCENARIO_DIR
#define LTP_SCENARIO_DIR "scenarios"
#endif

namespace ltp {
namespace {

/** Per-process scratch directory, removed at exit. */
const std::string &
scratchDir()
{
    static const struct Scratch
    {
        std::string dir = (std::filesystem::temp_directory_path() /
                           ("ltp_scenario_test_" +
                            std::to_string(::getpid())))
                              .string();
        Scratch() { std::filesystem::create_directories(dir); }
        ~Scratch()
        {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    } scratch;
    return scratch.dir;
}

/** A result-caching backend shared by the tests, so every panels
 *  scenario after the first answers its suite classification from
 *  the cache instead of re-simulating it. */
ExecBackendPtr
sharedCache()
{
    static const ExecBackendPtr backend = std::make_shared<CachedBackend>(
        LocalBackend::instance(),
        std::make_shared<ResultCache>(scratchDir() + "/cache"));
    return backend;
}

template <typename Fn>
std::string
messageOf(Fn &&fn)
{
    try {
        fn();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

void
expectParseErrorContains(const std::string &json,
                         const std::string &needle)
{
    std::string msg = messageOf([&]() { (void)scenarioFromJson(json); });
    EXPECT_FALSE(msg.empty()) << "no error for: " << json;
    EXPECT_NE(msg.find(needle), std::string::npos)
        << "error '" << msg << "' does not mention '" << needle << "'";
}

/** Structural equality of two specs: equality of every job's keys,
 *  kernels, and full config dump, plus name and staging. */
void
expectSpecsIdentical(const SweepSpec &a, const SweepSpec &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.lengths.funcWarm, b.lengths.funcWarm);
    EXPECT_EQ(a.lengths.pipeWarm, b.lengths.pipeWarm);
    EXPECT_EQ(a.lengths.detail, b.lengths.detail);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        const SweepJob &ja = a.jobs[i];
        const SweepJob &jb = b.jobs[i];
        EXPECT_EQ(ja.row, jb.row) << "job " << i;
        EXPECT_EQ(ja.series, jb.series) << "job " << i;
        EXPECT_EQ(ja.label, jb.label) << "job " << i;
        EXPECT_EQ(ja.kernels, jb.kernels) << "job " << i;
        EXPECT_EQ(configToJson(ja.cfg), configToJson(jb.cfg))
            << "job " << i << " (" << ja.row << ", " << ja.series << ")";
    }
}

/** Row label of one swept size, as the scenario files spell it. */
std::string
sizeLabel(int size)
{
    return isInfinite(size) ? "inf" : std::to_string(size);
}

/** Which resource a Figure 6 row sweeps. */
enum class SweptResource { Iq, Rf, Lq, Sq };

SimConfig
applySize(SimConfig cfg, SweptResource res, int size)
{
    switch (res) {
      case SweptResource::Iq: return cfg.withIq(size);
      case SweptResource::Rf: return cfg.withRegs(size);
      case SweptResource::Lq: return cfg.withLq(size);
      case SweptResource::Sq: return cfg.withSq(size);
    }
    return cfg;
}

/**
 * The Figure 6 limit study for one resource, built in C++: per panel,
 * No LTP at the resource's Table 1 size in the "|base" row, then each
 * size × {No LTP, NR, NU, NR+NU} with everything else unlimited.  The
 * reference the fig6 scenario files must compile to.
 */
SweepSpec
fig6Spec(const Panels &panels, SweptResource res, const char *res_name,
         const std::vector<int> &sizes, int baseline_size,
         std::uint64_t seed, const RunLengths &lengths)
{
    const std::vector<std::pair<std::string, LtpMode>> series = {
        {"No LTP", LtpMode::Off},
        {"LTP (NR)", LtpMode::NR},
        {"LTP (NU)", LtpMode::NU},
        {"LTP (NR+NU)", LtpMode::NRNU},
    };

    SweepSpec spec;
    spec.name = strprintf("fig6_%s", res_name);
    spec.lengths = lengths;
    for (const std::string &panel : panelNames(panels)) {
        std::vector<std::string> kernels = panelKernels(panels, panel);
        spec.addGroup(panelRow(panel, "base"), "No LTP",
                      applySize(SimConfig::limitStudy(LtpMode::Off), res,
                                baseline_size)
                          .withSeed(seed),
                      kernels, panel);
        for (int size : sizes)
            for (const auto &[label, mode] : series)
                spec.addGroup(panelRow(panel, sizeLabel(size)), label,
                              applySize(SimConfig::limitStudy(mode), res,
                                        size)
                                  .withSeed(seed),
                              kernels, panel);
    }
    return spec;
}

/** Bit-identity of two grids, via the exact Metrics JSON dump. */
void
expectGridsIdentical(const ResultGrid &a, const ResultGrid &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    for (const std::string &row : a.rows()) {
        ASSERT_EQ(a.series(row), b.series(row)) << row;
        for (const std::string &series : a.series(row))
            EXPECT_EQ(metricsToJson(a.at(row, series)),
                      metricsToJson(b.at(row, series)))
                << "(" << row << ", " << series << ")";
    }
}

// ---------------------------------------------------------------------------
// Parse errors name the offending path
// ---------------------------------------------------------------------------

TEST(Scenario, UnknownKeysNameTheirPath)
{
    expectParseErrorContains("{\"name\": \"x\", \"frobnicate\": 1}",
                             "frobnicate");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernel\": []}}",
        "workloads.kernel");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"spreset\": \"b\"}]}",
        "configs[0].spreset");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"set\": {\"core\": {\"iqq\": 1}}}]}",
        "configs[0].set.core.iqq");
}

TEST(Scenario, WrongTypesNameTheirPath)
{
    expectParseErrorContains("[1]", "<top level>");
    expectParseErrorContains("{\"name\": 3}", "name");
    expectParseErrorContains(
        "{\"name\": \"x\", \"lengths\": {\"detail\": \"long\"}}",
        "lengths.detail");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": [7]}}",
        "workloads.kernels[0]");
    expectParseErrorContains(
        "{\"name\": \"x\", \"lengths\": {\"detail\": -1}}",
        "lengths.detail");
    expectParseErrorContains("{\"name\": \"x\", \"seed\": 1.5}",
                             "seed");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"set\": {\"core.iq\": true}}]}",
        "configs[0].set.core.iq");
}

TEST(Scenario, TruncatedAndMalformedJsonFailsLoudly)
{
    // Truncated mid-object / mid-string / mid-array: the JSON reader
    // itself must reject these rather than silently defaulting.
    for (const std::string &text :
         {std::string("{\"name\": \"x\", \"workloads\": {"),
          std::string("{\"name\": \"tru"),
          std::string("{\"name\": \"x\", \"configs\": [{\"series\": "
                      "\"a\"}"),
          std::string("{\"name\": \"x\","), std::string("{"),
          std::string("")}) {
        std::string msg =
            messageOf([&]() { (void)scenarioFromJson(text); });
        EXPECT_FALSE(msg.empty()) << "no error for: '" << text << "'";
    }
}

TEST(Scenario, UnknownSweepKeysNameTheirPath)
{
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}], "
        "\"sweep\": {\"path\": \"core.iq\", \"values\": [1], "
        "\"valuess\": [2]}}",
        "sweep.valuess");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}], "
        "\"sweep\": {\"path\": \"core.iq\", \"values\": [1], "
        "\"baseline\": {\"series\": \"a\", \"value\": 1, "
        "\"vlaue\": 2}}}",
        "sweep.baseline.vlaue");
}

TEST(Scenario, TraceWorkloadErrorsNameTheirPath)
{
    // Exactly one workload form.
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"], \"traces\": [\"a.lttr\"]}}",
        "exactly one of");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"traces\": []}}",
        "workloads.traces must not be empty");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"traces\": [42]}}",
        "workloads.traces[0]");
    // A missing file is caught eagerly, naming the entry.
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"traces\": "
        "[\"/nonexistent/missing.lttr\"]}}",
        "workloads.traces[0]");
    // `trace:` names inside kernel lists are validated the same way.
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"trace:/nonexistent/missing.lttr\"]}}",
        "workloads.kernels[0]");
}

TEST(Scenario, SemanticErrorsAreDescriptive)
{
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\", \"no_such_kernel\"]}}",
        "workloads.kernels[1]");
    expectParseErrorContains(
        "{\"name\": \"x\", \"lengths\": \"fastish\"}", "fastish");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"preset\": \"turbo\"}]}",
        "configs[0].preset");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"preset\": \"limitStudy\"}]}",
        "requires a mode");
    // A mode on the baseline preset would be silently ignored.
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"mode\": \"NR\"}]}",
        "configs[0].mode");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}], "
        "\"sweep\": {\"path\": \"core.iqq\", \"values\": [1]}}",
        "sweep.path");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}, "
        "{\"series\": \"a\"}]}",
        "duplicate series");
    expectParseErrorContains(
        "{\"name\": \"x\", \"jobs\": [], \"configs\": []}",
        "mutually exclusive");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}], "
        "\"sweep\": {\"path\": \"core.iq\", \"values\": [1], "
        "\"baseline\": {\"series\": \"nope\", \"value\": 2}}}",
        "sweep.baseline.series");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}], "
        "\"views\": [\"ipc\", \"speed\"]}",
        "views[1]");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}, "
        "{\"series\": \"b\", \"base\": true}]}",
        "configs[1].base");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}], "
        "\"sweep\": {\"path\": [\"core.intRegs\", \"core.fpRegss\"], "
        "\"values\": [1]}}",
        "sweep.path[1]");
}

// ---------------------------------------------------------------------------
// Declarative compilation
// ---------------------------------------------------------------------------

TEST(Scenario, DeclarativeCompileMatchesHandBuiltSpec)
{
    Scenario sc = scenarioFromJson(
        "{\"name\": \"mini\","
        " \"lengths\": \"quick\","
        " \"seed\": 7,"
        " \"workloads\": {\"kernels\": [\"graph_walk\", "
        "\"dense_compute\"]},"
        " \"configs\": ["
        "   {\"series\": \"no-LTP\", \"preset\": \"baseline\"},"
        "   {\"series\": \"LTP\", \"preset\": \"ltpProposal\","
        "    \"mode\": \"NU\", \"set\": {\"core.ltp.entries\": 64}}],"
        " \"sweep\": {\"path\": \"core.iq\", \"values\": [16, 32]}}");
    SweepSpec got = sc.compile(1);

    SweepSpec want;
    want.name = "mini";
    want.lengths = RunLengths::quick();
    for (const std::string k : {"graph_walk", "dense_compute"})
        for (int iq : {16, 32}) {
            want.addGroup(k + "|" + std::to_string(iq), "no-LTP",
                          SimConfig::baseline().withSeed(7).withIq(iq),
                          {k}, k);
            want.addGroup(k + "|" + std::to_string(iq), "LTP",
                          SimConfig::ltpProposal(LtpMode::NU)
                              .withSeed(7)
                              .withLtp(LtpMode::NU, 64, 4)
                              .withIq(iq),
                          {k}, k);
        }
    // Hand-built order is per-kernel, per-size, per-series; the
    // compiler emits per-kernel, per-size, per-series too.
    expectSpecsIdentical(got, want);
}

TEST(Scenario, BaseConfigsMatchTheDesugaredBaseline)
{
    // `sweep.baseline` is sugar for a base config pinned at its value.
    const std::string head = R"({"name": "b", "configs": [)";
    const std::string nu =
        R"({"series": "NU", "preset": "limitStudy", "mode": "NU")";
    const std::string tail =
        R"(], "workloads": {"kernels": ["graph_walk", "dense_compute"]},
           "sweep": {"path": "core.iq", "values": [32, 16])";
    SweepSpec sugar =
        scenarioFromJson(head + nu + "}" + tail +
                         R"(, "baseline": {"series": "NU", "value": 64}}})")
            .compile(1);
    SweepSpec base =
        scenarioFromJson(head + nu +
                         R"(, "base": true, "set": {"core.iq": 64}}, )" +
                         nu + "}" + tail + "}}")
            .compile(1);
    expectSpecsIdentical(sugar, base);
    ASSERT_EQ(base.jobs.size(), 6u);
    EXPECT_EQ(base.jobs[0].row, "graph_walk|base");
    EXPECT_EQ(base.jobs[0].cfg.core.iqSize, 64);
    EXPECT_EQ(base.jobs[3].row, "dense_compute|base");
}

TEST(Scenario, GroupWorkloadsAverageLikeAddGroup)
{
    Scenario sc = scenarioFromJson(
        "{\"name\": \"groups\","
        " \"lengths\": \"quick\","
        " \"workloads\": {\"groups\": {\"ilp\": [\"dense_compute\", "
        "\"reduction\"]}},"
        " \"configs\": [{\"series\": \"base\", \"preset\": "
        "\"baseline\"}]}");
    SweepSpec spec = sc.compile(1);
    ASSERT_EQ(spec.jobs.size(), 1u);
    EXPECT_EQ(spec.jobs[0].row, "ilp");
    EXPECT_EQ(spec.jobs[0].label, "ilp");
    EXPECT_EQ(spec.jobs[0].kernels,
              (std::vector<std::string>{"dense_compute", "reduction"}));
    EXPECT_EQ(spec.simulationCount(), 2u);
}

TEST(Scenario, NameOverrideAndSeedPropagate)
{
    Scenario sc = scenarioFromJson(
        "{\"name\": \"n\", \"seed\": 99,"
        " \"workloads\": {\"kernels\": [\"graph_walk\"]},"
        " \"configs\": [{\"series\": \"s\", \"preset\": \"baseline\","
        "   \"name\": \"relabelled\"}]}");
    SweepSpec spec = sc.compile(1);
    ASSERT_EQ(spec.jobs.size(), 1u);
    EXPECT_EQ(spec.jobs[0].cfg.name, "relabelled");
    EXPECT_EQ(spec.jobs[0].cfg.seed, 99u);
}

// ---------------------------------------------------------------------------
// Explicit-jobs export round trip
// ---------------------------------------------------------------------------

TEST(Scenario, SweepSpecExportRoundTripsValueByValue)
{
    // The export's text read back value by value: staging, the
    // sampling plan, and each job's keys, kernels and whole config.
    SimConfig odd = SimConfig::limitStudy(LtpMode::NRNU)
                        .withSeed(5)
                        .withName("odd \"q\"");
    odd.mem.dram.cpuCyclesPerDramCycle = 3.7;
    SweepSpec spec;
    spec.name = "export";
    spec.lengths = RunLengths{4000, 800, 2000};
    spec.sampling = SamplePlan::defaults();
    spec.add("paper_loop", "base", SimConfig::baseline(), "paper_loop");
    spec.addGroup("grp", "odd", odd, {"dense_compute", "reduction"},
                  "grp");

    JsonValue root = parseJson(sweepSpecToJson(spec));
    const auto &f = root.object;
    EXPECT_EQ(f.size(), 4u);
    EXPECT_EQ(f.at("name").str, spec.name);
    const auto &l = f.at("lengths").object;
    EXPECT_EQ(jsonToU64(l.at("funcWarm")), spec.lengths.funcWarm);
    EXPECT_EQ(jsonToU64(l.at("pipeWarm")), spec.lengths.pipeWarm);
    EXPECT_EQ(jsonToU64(l.at("detail")), spec.lengths.detail);
    const auto &sp = f.at("sampling").object;
    EXPECT_EQ(jsonToU64(sp.at("fastForward")), spec.sampling.fastForward);
    EXPECT_EQ(jsonToU64(sp.at("warmup")), spec.sampling.warmup);
    EXPECT_EQ(jsonToU64(sp.at("detail")), spec.sampling.detail);
    EXPECT_EQ(jsonToU64(sp.at("samples")),
              std::uint64_t(spec.sampling.samples));
    const auto &jobs = f.at("jobs").array;
    ASSERT_EQ(jobs.size(), spec.jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &want = spec.jobs[i];
        const auto &j = jobs[i].object;
        EXPECT_EQ(j.size(), 5u);
        EXPECT_EQ(j.at("row").str, want.row);
        EXPECT_EQ(j.at("series").str, want.series);
        EXPECT_EQ(j.at("label").str, want.label);
        std::vector<std::string> kernels;
        for (const JsonValue &k : j.at("kernels").array)
            kernels.push_back(k.str);
        EXPECT_EQ(kernels, want.kernels);
        // The identity covers every registered field.
        EXPECT_EQ(configIdentity(configFromJson(j.at("config"))),
                  configIdentity(want.cfg))
            << want.row;
    }
}

TEST(Scenario, SweepSpecExportRoundTripsAndRunsIdentically)
{
    std::vector<SimConfig> configs = {
        SimConfig::baseline().withSeed(3).withName("base"),
        SimConfig::ltpProposal().withSeed(3).withName("ltp")};
    SweepSpec spec = SweepSpec::cross(
        "export", configs, {"paper_loop", "hash_probe"},
        RunLengths{4000, 800, 2000});
    spec.addGroup("grp", "base", configs[0],
                  {"dense_compute", "reduction"}, "grp");

    Scenario sc = scenarioFromJson(sweepSpecToJson(spec));
    EXPECT_TRUE(sc.explicitJobs);
    SweepSpec back = sc.compile(1);
    expectSpecsIdentical(spec, back);

    // Exported jobs keep their own seeds unless one is forced, in
    // which case it overrides every job (the `ltp sweep --seed` path).
    EXPECT_FALSE(sc.hasSeed);
    sc.seed = 99;
    sc.hasSeed = true;
    for (const SweepJob &job : sc.compile(1).jobs)
        EXPECT_EQ(job.cfg.seed, 99u);

    SweepResult direct = Runner(1).run(spec);
    SweepResult loaded = Runner(2).run(back);
    expectGridsIdentical(direct.grid, loaded.grid);
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

TEST(Scenario, ViewsRenderInDeclaredOrderAgainstTheReferenceCell)
{
    // Declared order, which sorted order would scramble ("w|base"
    // sorts last, "w|128" before "w|16", "a" before "b").  Swept rows
    // compare against their workload's first base cell, a row with no
    // base row against its own first series; absent cells read "-".
    SweepResult r;
    r.name = "v";
    auto put = [&](const std::string &row, const std::string &series,
                   double ipc, std::uint64_t forced) {
        Metrics m;
        m.ipc = ipc;
        m.forcedUnparks = forced;
        r.grid.put(row, series, m);
    };
    put("w|base", "ref", 2.0, 0);
    put("w|base", "alt", 1.0, 0);
    put("w|16", "b", 1.0, 7);
    put("w|16", "a", 3.0, 0);
    put("w|128", "a", 2.0, 0);
    put("k", "x", 1.0, 0);
    put("k", "y", 1.5, 0);

    EXPECT_EQ(renderViews(r, {"perf", "forcedUnparks"}), R"(
== v: perf % vs reference by (row, series) — 0 sims, 1 threads, 0 ms ==
| row    | ref   | alt    | b      | a      | x     | y      |
|--------|-------|--------|--------|--------|-------|--------|
| w|base | +0.0% | -50.0% | -      | -      | -     | -      |
| w|16   | -     | -      | -50.0% | +50.0% | -     | -      |
| w|128  | -     | -      | -      | +0.0%  | -     | -      |
| k      | -     | -      | -      | -      | +0.0% | +50.0% |

== v: forcedUnparks by (row, series) — 0 sims, 1 threads, 0 ms ==
| row    | ref | alt | b | a | x | y |
|--------|-----|-----|---|---|---|---|
| w|base | 0   | 0   | - | - | - | - |
| w|16   | -   | -   | 7 | 0 | - | - |
| w|128  | -   | -   | - | 0 | - | - |
| k      | -   | -   | - | - | 0 | 0 |
)");
    // Rates print to four decimals.
    EXPECT_NE(renderViews(r, {"ipc"}).find("| 1.0000 | 1.5000 |"),
              std::string::npos);

    for (const char *ok : {"ipc", "cpi", "ltpOcc", "insts", "ed2p"})
        EXPECT_TRUE(isViewName(ok)) << ok;
    for (const char *no : {"config", "energy", "schemaVersion", "speed"})
        EXPECT_FALSE(isViewName(no)) << no;
}

// ---------------------------------------------------------------------------
// Golden scenarios shipped in scenarios/
// ---------------------------------------------------------------------------

TEST(Scenario, GoldenFig6IqQuickMatchesBenchSpec)
{
    Scenario sc =
        loadScenarioFile(std::string(LTP_SCENARIO_DIR) +
                         "/fig6_iq_quick.json");
    EXPECT_EQ(sc.name, "fig6_IQ");
    EXPECT_EQ(sc.lengths.funcWarm, 6000u);
    EXPECT_EQ(sc.lengths.pipeWarm, 1000u);
    EXPECT_EQ(sc.lengths.detail, 3000u);
    EXPECT_EQ(sc.seed, 1u);

    SweepSpec from_json = sc.compile(1);

    // The equivalent spec, built in C++.
    Panels panels = classifyPanels(sc.lengths, sc.seed, 1);
    SweepSpec from_cpp = fig6Spec(
        panels, SweptResource::Iq, "IQ",
        {kInfiniteSize, 128, 64, 32, 16}, 64, sc.seed, sc.lengths);

    expectSpecsIdentical(from_json, from_cpp);

    // Same configs, lengths, and seeds => bit-identical Metrics for
    // every (row, series) cell; run at reduced staging to keep the
    // full-grid comparison fast, with the scenario side sharded.
    from_json.lengths = RunLengths{2000, 400, 1000};
    from_cpp.lengths = from_json.lengths;
    SweepResult json_run = Runner(2).run(from_json);
    SweepResult cpp_run = Runner(1).run(from_cpp);
    expectGridsIdentical(json_run.grid, cpp_run.grid);
}

TEST(Scenario, GoldenTable1CompareUsesTheExactPresets)
{
    Scenario sc =
        loadScenarioFile(std::string(LTP_SCENARIO_DIR) +
                         "/table1_compare.json");
    EXPECT_EQ(sc.workloadKind, Scenario::WorkloadKind::Panels);
    EXPECT_EQ(sc.lengths.funcWarm, RunLengths::bench().funcWarm);
    ASSERT_EQ(sc.configs.size(), 2u);
    EXPECT_EQ(configToJson(sc.buildConfig(sc.configs[0])),
              configToJson(SimConfig::baseline().withSeed(sc.seed)));
    EXPECT_EQ(configToJson(sc.buildConfig(sc.configs[1])),
              configToJson(
                  SimConfig::ltpProposal(LtpMode::NU).withSeed(sc.seed)));
}

TEST(Scenario, GoldenFig6RowsMatchTheCppSpec)
{
    // All four Figure 6 rows at bench staging; the RF row sweeps
    // core.intRegs and core.fpRegs together through a path array.
    struct Row
    {
        const char *file;
        SweptResource res;
        const char *name;
        std::vector<int> sizes;
        int baseline;
    };
    const Row rows[] = {
        {"fig6_iq", SweptResource::Iq, "IQ",
         {kInfiniteSize, 128, 64, 32, 16}, 64},
        {"fig6_rf", SweptResource::Rf, "RF",
         {kInfiniteSize, 128, 96, 64, 32}, 128},
        {"fig6_lq", SweptResource::Lq, "LQ",
         {kInfiniteSize, 64, 32, 16, 8}, 64},
        {"fig6_sq", SweptResource::Sq, "SQ",
         {kInfiniteSize, 64, 32, 16, 8}, 32},
    };
    Panels panels = classifyPanels(RunLengths::bench(), 1, 0, sharedCache());
    for (const Row &row : rows) {
        SCOPED_TRACE(row.file);
        Scenario sc = loadScenarioFile(std::string(LTP_SCENARIO_DIR) +
                                       "/" + row.file + ".json");
        EXPECT_EQ(sc.views, std::vector<std::string>{"perf"});
        expectSpecsIdentical(
            sc.compile(0, sharedCache()),
            fig6Spec(panels, row.res, row.name, row.sizes, row.baseline,
                     1, RunLengths::bench()));
    }
}

TEST(Scenario, EveryScenarioFileCompilesToItsPinnedShape)
{
    // Jobs and simulations at each file's own staging, seed 1.  The
    // figure scenarios pin the cells of the paper's figures; a new
    // file must be added here.
    struct Shape
    {
        std::size_t jobs;
        std::size_t sims;
        bool benchStaging;
    };
    const std::map<std::string, Shape> shapes = {
        {"ablation_monitor", {6, 42, true}},
        {"ablation_wakeup", {8, 56, true}},
        {"fig10_tradeoffs", {88, 352, true}},
        {"fig11_tickets", {18, 126, true}},
        {"fig1_motivation", {6, 42, true}},
        {"fig23_example", {2, 2, true}},
        {"fig6_iq", {84, 336, true}},
        {"fig6_iq_quick", {84, 336, false}},
        {"fig6_lq", {84, 336, true}},
        {"fig6_rf", {84, 336, true}},
        {"fig6_sq", {84, 336, true}},
        {"fig7_utilization", {12, 48, true}},
        {"iq_sweep_example", {16, 16, false}},
        {"replay_example", {4, 4, false}},
        {"smt_pairs", {8, 8, false}},
        {"table1_compare", {8, 32, true}},
        {"uit_sweep", {14, 98, true}},
    };

    // Trace paths resolve against the scratch directory, where the
    // traces replay_example.json names are recorded first.
    std::filesystem::create_directories(scratchDir() + "/traces");
    for (const char *kernel : {"paper_loop", "graph_walk"}) {
        TraceInfo info;
        info.kernel = kernel;
        info.funcWarm = 4000;
        info.pipeWarm = 800;
        info.detail = 2000;
        writeTraceFile(scratchDir() + "/traces/" + kernel + ".lttr",
                       recordTrace(info));
    }

    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(LTP_SCENARIO_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        std::string name = entry.path().stem().string();
        SCOPED_TRACE(name);
        ++files;
        auto it = shapes.find(name);
        ASSERT_NE(it, shapes.end()) << "no pinned shape for " << name;
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        Scenario sc = scenarioFromJson(text.str(), scratchDir());
        EXPECT_EQ(sc.seed, 1u);
        if (it->second.benchStaging) {
            EXPECT_EQ(sc.lengths.funcWarm, RunLengths::bench().funcWarm);
            EXPECT_EQ(sc.lengths.pipeWarm, RunLengths::bench().pipeWarm);
            EXPECT_EQ(sc.lengths.detail, RunLengths::bench().detail);
        }
        SweepSpec spec = sc.compile(0, sharedCache());
        EXPECT_EQ(spec.jobs.size(), it->second.jobs);
        EXPECT_EQ(spec.simulationCount(), it->second.sims);
    }
    EXPECT_EQ(files, shapes.size()); // every pinned file still exists
}

} // namespace
} // namespace ltp
