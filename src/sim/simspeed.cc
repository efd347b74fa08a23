#include "sim/simspeed.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/file_io.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "trace/suite.hh"

namespace ltp {

namespace {

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
kips(std::uint64_t insts, double wall_ms)
{
    return wall_ms > 0.0 ? double(insts) / wall_ms : 0.0;
}

/** The per-kernel measurement set: representative, MLP-diverse. */
std::vector<std::string>
benchKernels(bool quick)
{
    if (quick)
        return {"paper_loop", "graph_walk", "sparse_gather",
                "dense_compute"};
    std::vector<std::string> all;
    for (const SuiteEntry &e : kernelSuite())
        all.push_back(e.name);
    return all;
}

JsonValue
cellTree(const SimSpeedCell &c,
         const std::map<std::string, double> &refs)
{
    JsonValue o = jsonObject(
        {{"label", jsonStr(c.label)},
         {"config", jsonStr(c.config)},
         {"simulations", jsonU64(c.simulations)},
         {"detailed_insts", jsonU64(c.detailedInsts)},
         {"wall_ms", jsonDouble(c.wallMs)},
         {"kips", jsonDouble(c.kips)}});
    auto ref = refs.find(c.label);
    if (ref != refs.end()) {
        o.object["reference_kips"] = jsonDouble(ref->second);
        if (ref->second > 0.0)
            o.object["speedup_vs_reference"] =
                jsonDouble(c.kips / ref->second);
    }
    if (c.profiled()) {
        JsonValue stages = jsonObject();
        for (int s = 0; s < TickProfile::kNumStages; ++s)
            stages.object[TickProfile::stageName(s)] =
                jsonU64(c.profile.stageNs(s));
        JsonValue &p = o.object["profile"] = jsonObject(
            {{"ticks", jsonU64(c.profile.ticks)},
             {"sampled", jsonU64(c.profile.sampled)},
             {"clock_ns", jsonU64(c.profile.clockNs)},
             {"total_ns", jsonU64(c.profile.totalNs())}});
        p.object["stage_ns"] = std::move(stages);
    }
    return o;
}

} // namespace

std::string
SimSpeedReport::toJson() const
{
    JsonValue doc = jsonObject(
        {{"name", jsonStr("simspeed")},
         {"quick", jsonBool(quick)},
         {"seed", jsonU64(seed)},
         {"reps", jsonU64(std::uint64_t(reps))},
         {"threads", jsonU64(1)},
         {"total", jsonObject({{"detailed_insts", jsonU64(totalInsts)},
                               {"wall_ms", jsonDouble(totalWallMs)},
                               {"kips", jsonDouble(totalKips)}})}});
    auto cells = [&](const char *key,
                     const std::vector<SimSpeedCell> &list) {
        JsonValue &arr = doc.object[key] = jsonArray();
        for (const SimSpeedCell &c : list)
            arr.array.push_back(cellTree(c, referenceKips));
    };
    cells("kernels", kernelCells);
    cells("scenarios", scenarioCells);
    return writeJson(doc) + "\n";
}

SimSpeedReport
runSimSpeedBench(const SimSpeedOptions &opts)
{
    SimSpeedReport report;
    report.quick = opts.quick;
    report.seed = opts.seed;
    int reps = std::max(1, opts.reps);
    report.reps = reps;

    std::uint64_t per_sim =
        opts.lengths.pipeWarm + opts.lengths.detail;
    std::vector<SimConfig> configs = {
        SimConfig::baseline(), SimConfig::ltpProposal(LtpMode::NRNU)};

    for (const std::string &kernel : benchKernels(opts.quick)) {
        for (const SimConfig &base : configs) {
            SimConfig cfg = base;
            cfg.seed = opts.seed;
            SimSpeedCell cell;
            cell.label = kernel;
            cell.config = cfg.name;
            cell.detailedInsts = per_sim;
            for (int r = 0; r < reps; ++r) {
                TickProfile profile;
                auto start = std::chrono::steady_clock::now();
                {
                    Simulator sim(cfg, kernel, opts.lengths);
                    if (opts.profile)
                        sim.core().setProfiler(&profile);
                    sim.run();
                }
                double ms = msSince(start);
                if (r == 0 || ms < cell.wallMs) {
                    cell.wallMs = ms;
                    cell.profile = profile;
                }
            }
            cell.kips = kips(cell.detailedInsts, cell.wallMs);
            report.kernelCells.push_back(cell);
        }
    }

    // A multiprogrammed (smt:) cell commits its quota *per thread*;
    // crediting one quota keeps the number a conservative per-cell
    // throughput, consistent with the single-threaded cells.
    for (const std::string &path : opts.scenarios) {
        Scenario scenario = loadScenarioFile(path);
        SweepSpec spec = scenario.compile(/*threads=*/1);
        std::uint64_t per_cell =
            scenario.lengths.pipeWarm + scenario.lengths.detail;
        SimSpeedCell cell;
        for (int r = 0; r < reps; ++r) {
            auto start = std::chrono::steady_clock::now();
            // Only the cells the sweep computes count: a repeated cell
            // is copied, not simulated.
            cell.simulations = Runner(/*threads=*/1).run(spec).computed;
            double ms = msSince(start);
            if (r == 0 || ms < cell.wallMs)
                cell.wallMs = ms;
        }
        cell.label = spec.name;
        cell.config = "scenario";
        cell.detailedInsts = per_cell * cell.simulations;
        cell.kips = kips(cell.detailedInsts, cell.wallMs);
        report.scenarioCells.push_back(cell);
    }

    for (const auto &cells :
         {report.kernelCells, report.scenarioCells}) {
        for (const SimSpeedCell &c : cells) {
            report.totalInsts += c.detailedInsts;
            report.totalWallMs += c.wallMs;
        }
    }
    report.totalKips = kips(report.totalInsts, report.totalWallMs);
    return report;
}

namespace {

JsonValue
loadBaseline(const std::string &path)
{
    return parseJson(readFile(path));
}

} // namespace

std::map<std::string, double>
loadReferenceKips(const std::string &baselinePath)
{
    std::map<std::string, double> refs;
    JsonValue root = loadBaseline(baselinePath);
    auto it = root.object.find("reference_kips");
    if (it != root.object.end() && it->second.isObject())
        for (const auto &[label, v] : it->second.object)
            if (v.isNumber())
                refs[label] = v.num;
    return refs;
}

bool
checkSimSpeedBaseline(const SimSpeedReport &report,
                      const std::string &baselinePath,
                      double failBelowFrac)
{
    JsonValue root = loadBaseline(baselinePath);
    auto it = root.object.find("total_kips");
    if (it == root.object.end() || !it->second.isNumber())
        throw std::runtime_error(
            "simspeed baseline missing numeric total_kips: " +
            baselinePath);
    double baseline = it->second.num;
    double floor = baseline * failBelowFrac;
    bool ok = report.totalKips >= floor;
    std::printf("simspeed check: measured %.1f kIPS vs baseline %.1f "
                "(floor %.1f at %.0f%%): %s\n",
                report.totalKips, baseline, floor,
                failBelowFrac * 100.0, ok ? "OK" : "REGRESSION");
    return ok;
}

} // namespace ltp
