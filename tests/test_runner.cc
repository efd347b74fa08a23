/**
 * @file
 * Tests for the parallel experiment runner: the thread pool, sweep
 * declaration, parallel-vs-serial bit-identity, concurrent ResultGrid
 * access, and the JSON report round-trip.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/thread_pool.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/simspeed.hh"

namespace ltp {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);

    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i]() { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit([&ran]() { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 100);
}

// ---------------------------------------------------------------------------
// SweepSpec
// ---------------------------------------------------------------------------

TEST(SweepSpec, CrossProductShape)
{
    std::vector<SimConfig> configs = {
        SimConfig::baseline().withName("a"),
        SimConfig::baseline().withName("b")};
    SweepSpec spec = SweepSpec::cross("x", configs, {"k1", "k2", "k3"},
                                      RunLengths::quick());
    EXPECT_EQ(spec.jobs.size(), 6u);
    EXPECT_EQ(spec.simulationCount(), 6u);
}

TEST(SweepSpec, GroupJobsCountPerKernel)
{
    SweepSpec spec;
    spec.addGroup("row", "series", SimConfig::baseline(), {"k1", "k2"},
                  "grp");
    spec.add("row2", "series", SimConfig::baseline(), "k3");
    EXPECT_EQ(spec.jobs.size(), 2u);
    EXPECT_EQ(spec.simulationCount(), 3u);
}

// ---------------------------------------------------------------------------
// Runner determinism: parallel must be bit-identical to serial
// ---------------------------------------------------------------------------

void
expectIdentical(const Metrics &a, const Metrics &b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.cycles, b.cycles);
    // Bit-identity, not approximate equality.
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.avgOutstanding, b.avgOutstanding);
    EXPECT_EQ(a.avgLoadLatency, b.avgLoadLatency);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.iqOcc, b.iqOcc);
    EXPECT_EQ(a.rfOcc, b.rfOcc);
    EXPECT_EQ(a.ltpOcc, b.ltpOcc);
    EXPECT_EQ(a.parked, b.parked);
    EXPECT_EQ(a.unparked, b.unparked);
    EXPECT_EQ(a.energy.iq, b.energy.iq);
    EXPECT_EQ(a.energy.rf, b.energy.rf);
    EXPECT_EQ(a.energy.ltp, b.energy.ltp);
    EXPECT_EQ(a.ed2p, b.ed2p);
}

TEST(Runner, ParallelBitIdenticalToSerial)
{
    // 2 configs x 4 kernels, as the issue prescribes.
    std::vector<SimConfig> configs = {
        SimConfig::baseline().withSeed(7).withName("baseline"),
        SimConfig::ltpProposal().withSeed(7).withName("ltp")};
    std::vector<std::string> kernels = {"paper_loop", "hash_probe",
                                        "dense_compute", "graph_walk"};
    SweepSpec spec = SweepSpec::cross("bitident", configs, kernels,
                                      RunLengths::quick());

    SweepResult serial = Runner(1).run(spec);
    SweepResult parallel = Runner(4).run(spec);

    EXPECT_EQ(serial.threads, 1);
    EXPECT_EQ(parallel.threads, 4);
    EXPECT_EQ(serial.simulations, 8u);
    EXPECT_EQ(parallel.simulations, 8u);
    for (const std::string &k : kernels)
        for (const SimConfig &cfg : configs)
            expectIdentical(serial.grid.at(k, cfg.name),
                            parallel.grid.at(k, cfg.name));
}

TEST(Runner, GroupAveragesBitIdenticalToSerial)
{
    SweepSpec spec;
    spec.name = "groups";
    spec.lengths = RunLengths::quick();
    spec.addGroup("g", "ilp", SimConfig::baseline(),
                  {"dense_compute", "reduction", "div_heavy"}, "ilp");
    spec.addGroup("g", "mlp", SimConfig::baseline(),
                  {"graph_walk", "hash_probe"}, "mlp");

    SweepResult serial = Runner(1).run(spec);
    SweepResult parallel = Runner(3).run(spec);
    expectIdentical(serial.grid.at("g", "ilp"),
                    parallel.grid.at("g", "ilp"));
    expectIdentical(serial.grid.at("g", "mlp"),
                    parallel.grid.at("g", "mlp"));

    // The average label is preserved and the group row is the
    // kernel-order average of direct simulations.
    EXPECT_EQ(serial.grid.at("g", "ilp").workload, "ilp");
    std::vector<Metrics> direct;
    for (const char *k : {"dense_compute", "reduction", "div_heavy"})
        direct.push_back(Simulator::runOnce(SimConfig::baseline(), k,
                                            RunLengths::quick()));
    expectIdentical(serial.grid.at("g", "ilp"),
                    averageMetrics(direct, "ilp"));
}

TEST(Runner, SerialPathReportsProgressPerCell)
{
    // --threads=1 sweeps go through the same ProgressFn as sharded
    // ones: one callback per completed cell, done climbing to total.
    SweepSpec spec = SweepSpec::cross(
        "serial_progress", {SimConfig::baseline()},
        {"paper_loop", "dense_compute", "graph_walk"}, RunLengths::quick());

    std::vector<Progress> seen;
    Runner(1).run(spec,
                  [&seen](const Progress &p) { seen.push_back(p); });

    ASSERT_EQ(seen.size(), spec.simulationCount());
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].done, i + 1);
        EXPECT_EQ(seen[i].total, spec.simulationCount());
        EXPECT_EQ(seen[i].hits, 0u); // local backend: nothing cached
    }
}

TEST(Runner, ThreadedPathReportsFinalProgress)
{
    SweepSpec spec = SweepSpec::cross(
        "threaded_progress", {SimConfig::baseline()},
        {"paper_loop", "dense_compute"}, RunLengths::quick());

    std::vector<Progress> seen;
    Runner(2).run(spec,
                  [&seen](const Progress &p) { seen.push_back(p); });

    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(seen.back().done, spec.simulationCount());
    EXPECT_EQ(seen.back().total, spec.simulationCount());
}

TEST(Runner, ShardedCellsMatchDirectSimulation)
{
    SimConfig cfg = SimConfig::baseline().withName("base");
    SweepSpec spec = SweepSpec::cross("direct", {cfg},
                                      {"paper_loop", "hash_probe"},
                                      RunLengths::quick());
    SweepResult res = Runner(2).run(spec);
    for (const char *k : {"paper_loop", "hash_probe"})
        expectIdentical(res.grid.at(k, "base"),
                        Simulator::runOnce(cfg, k, RunLengths::quick()));
}

// ---------------------------------------------------------------------------
// Per-sweep dedupe: each distinct (config, workload) cell runs once
// ---------------------------------------------------------------------------

/** Counts runCell calls; computes in-process, or (when @p fake) returns
 *  a Metrics made of the cell's identity that reads as a cache hit for
 *  workload "hit". */
class CountingBackend : public ExecBackend
{
  public:
    explicit CountingBackend(bool fake = false) : fake_(fake) {}

    std::string name() const override { return "counting"; }

    CellResult
    runCell(const CellKey &key, const SimConfig &cfg,
            const std::string &workload, const RunLengths &lengths,
            const SamplePlan &sampling) override
    {
        calls.fetch_add(1);
        if (!fake_)
            return local_.runCell(key, cfg, workload, lengths, sampling);
        CellResult r;
        r.metrics.config = cfg.name;
        r.metrics.workload = workload;
        r.metrics.insts = cfg.seed;
        r.cacheHit = workload == "hit";
        return r;
    }

    std::atomic<std::size_t> calls{0};

  private:
    bool fake_;
    LocalBackend local_;
};

TEST(RunnerDedupe, Fig6QuickComputesEachDistinctCellOnce)
{
    // The base row (No LTP @ IQ 64) repeats the IQ 64 column, and two
    // kernels sit in two panels each: 336 shards, 280 computations.
    // The dedupe works on the compiled spec, so shorter cells keep it.
    Scenario sc = loadScenarioFile(std::string(LTP_SCENARIO_DIR) +
                                   "/fig6_iq_quick.json");
    SweepSpec spec = sc.compile(2);
    spec.lengths = RunLengths{1500, 300, 600};
    ASSERT_EQ(spec.simulationCount(), 336u);

    auto counting = std::make_shared<CountingBackend>();
    std::vector<Progress> seen;
    SweepResult res = Runner(4, counting).run(
        spec, [&seen](const Progress &p) { seen.push_back(p); });
    EXPECT_EQ(counting->calls.load(), 280u);
    EXPECT_EQ(res.simulations, 336u);
    EXPECT_EQ(res.computed, 280u);
    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(seen.back().done, 336u);
    EXPECT_EQ(seen.back().total, 336u);

    // Every cell equals its own shards simulated one by one.
    for (const SweepJob &job : spec.jobs) {
        SCOPED_TRACE(job.row + " / " + job.series);
        std::vector<Metrics> direct;
        for (const std::string &k : job.kernels)
            direct.push_back(Simulator::runOnce(job.cfg, k, spec.lengths));
        expectIdentical(res.grid.at(job.row, job.series),
                        direct.size() == 1
                            ? direct[0]
                            : averageMetrics(direct, job.label));
    }
}

TEST(RunnerDedupe, RepeatsInheritTheHitFlagAndCountInProgress)
{
    SimConfig cfg = SimConfig::baseline().withName("c");
    SweepSpec spec;
    spec.name = "repeats";
    spec.add("r1", "s", cfg, "hit");
    spec.add("r2", "s", cfg, "miss");
    spec.add("r3", "s", cfg, "hit");                          // repeat
    spec.addGroup("r4", "s", cfg, {"miss", "hit"}, "grp");    // 2 repeats
    spec.add("r5", "s", SimConfig(cfg).withSeed(2), "hit");   // seed
    spec.add("r6", "s", SimConfig(cfg).withName("d"), "hit"); // name
    spec.add("r7", "s", SimConfig(cfg).withIq(63), "hit");    // a field

    for (int threads : {1, 3}) {
        SCOPED_TRACE(threads);
        auto counting = std::make_shared<CountingBackend>(true);
        std::vector<Progress> seen;
        SweepResult res = Runner(threads, counting).run(
            spec, [&seen](const Progress &p) { seen.push_back(p); });
        EXPECT_EQ(counting->calls.load(), 5u);
        EXPECT_EQ(res.simulations, 8u);
        EXPECT_EQ(res.computed, 5u);
        EXPECT_EQ(res.cacheHits, 6u); // every "hit" shard, repeats too
        ASSERT_FALSE(seen.empty());
        EXPECT_EQ(seen.back().done, 8u);
        EXPECT_EQ(seen.back().total, 8u);
        EXPECT_EQ(seen.back().hits, 6u);
        if (threads == 1) {
            ASSERT_EQ(seen.size(), 8u); // once per shard, repeats too
            for (std::size_t i = 0; i < seen.size(); ++i)
                EXPECT_EQ(seen[i].done, i + 1);
        }
        EXPECT_EQ(res.grid.at("r3", "s").workload, "hit");
        EXPECT_EQ(res.grid.at("r5", "s").insts, 2u);
        EXPECT_EQ(res.grid.at("r6", "s").config, "d");
        EXPECT_EQ(res.grid.at("r4", "s").workload, "grp");
    }
}

TEST(RunnerDedupe, ConfigIdentityCoversEveryRegisteredField)
{
    // Any one field set to another value gives another identity.
    SimConfig base = SimConfig::limitStudy(LtpMode::NRNU);
    std::string id = configIdentity(base);
    EXPECT_EQ(configIdentity(SimConfig(base)), id);
    JsonValue tree = configTree(base);
    for (const std::string &path : configPaths()) {
        SCOPED_TRACE(path);
        const JsonValue *v = &tree;
        for (std::size_t at = 0, dot; at <= path.size(); at = dot + 1) {
            dot = path.find('.', at);
            if (dot == std::string::npos)
                dot = path.size();
            v = &v->object.at(path.substr(at, dot - at));
        }
        std::string value = v->isBool() ? (v->boolean ? "false" : "true")
                            : path == "name"                ? "other"
                            : path == "core.ltp.mode"       ? "off"
                            : path == "core.ltp.classifier" ? "learned"
                            : path == "core.ltp.wakeup"     ? "eager"
                            : path == "core.fetchPolicy"    ? "icount"
                            : v->str == "3"                 ? "7"
                                                            : "3";
        SimConfig other = base;
        applyOverride(other, path, value);
        EXPECT_NE(configIdentity(other), id);
    }
}

// ---------------------------------------------------------------------------
// ResultGrid
// ---------------------------------------------------------------------------

TEST(ResultGrid, ConcurrentPutFromPool)
{
    ResultGrid grid;
    ThreadPool pool(8);
    const int rows = 16, series = 8;

    std::vector<std::future<void>> futures;
    for (int r = 0; r < rows; ++r) {
        for (int s = 0; s < series; ++s) {
            futures.push_back(pool.submit([&grid, r, s]() {
                Metrics m;
                m.ipc = r + s * 0.01;
                m.cycles = std::uint64_t(r * 1000 + s);
                grid.put("row" + std::to_string(r),
                         "s" + std::to_string(s), m);
            }));
        }
    }
    for (auto &f : futures)
        f.get();

    EXPECT_EQ(grid.size(), std::size_t(rows * series));
    for (int r = 0; r < rows; ++r)
        for (int s = 0; s < series; ++s)
            EXPECT_EQ(grid.at("row" + std::to_string(r),
                              "s" + std::to_string(s))
                          .cycles,
                      std::uint64_t(r * 1000 + s));
}

// ResultGrid::at's descriptive std::out_of_range is covered in
// test_sim.cc (Experiment.ResultGridMissingKeyNamesTheKey).

TEST(ResultGrid, RowsAndSeriesEnumerate)
{
    ResultGrid grid;
    Metrics m;
    grid.put("b", "s1", m);
    grid.put("a", "s2", m);
    grid.put("a", "s1", m);
    EXPECT_EQ(grid.rows(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(grid.series("a"), (std::vector<std::string>{"s1", "s2"}));
    EXPECT_TRUE(grid.series("zz").empty());
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

Metrics
distinctiveMetrics()
{
    Metrics m;
    m.config = "cfg \"quoted\"";
    m.workload = "kernel\\path";
    m.insts = 123456789012345ull;
    m.cycles = 987654321ull;
    m.ipc = 1.2345678901234567;
    m.cpi = 1.0 / m.ipc;
    m.avgOutstanding = 3.75;
    m.avgLoadLatency = 142.625;
    m.dramReads = 42;
    m.iqOcc = 17.5;
    m.robOcc = 201.25;
    m.lqOcc = 33.0;
    m.sqOcc = 12.5;
    m.rfOcc = 99.875;
    m.ltpOcc = 64.125;
    m.ltpRegsOcc = 21.5;
    m.ltpLoadsOcc = 3.25;
    m.ltpStoresOcc = 1.125;
    m.ltpEnabledFrac = 0.9375;
    m.parkedFrac = 0.4375;
    m.parked = 1111;
    m.unparked = 1110;
    m.forcedUnparks = 7;
    m.pressureUnparks = 13;
    m.llpredAccuracy = 0.8125;
    m.bpAccuracy = 0.96875;
    m.energy.iq = 1234.5678;
    m.energy.rf = 8765.4321;
    m.energy.ltp = 111.222;
    m.ed2p = 1e18;
    m.edp = 2.5e9;
    return m;
}

TEST(Report, MetricsJsonRoundTripIsExact)
{
    Metrics m = distinctiveMetrics();
    Metrics back = metricsFromJson(parseJson(metricsToJson(m)));
    expectIdentical(m, back);
    EXPECT_EQ(back.config, "cfg \"quoted\"");
    EXPECT_EQ(back.workload, "kernel\\path");
    EXPECT_EQ(back.robOcc, m.robOcc);
    EXPECT_EQ(back.llpredAccuracy, m.llpredAccuracy);
    EXPECT_EQ(back.forcedUnparks, m.forcedUnparks);
    EXPECT_EQ(back.pressureUnparks, m.pressureUnparks);
    EXPECT_EQ(back.edp, m.edp);
}

/** Equal, or both NaN (an absent interval reads back as NaN). */
template <class T>
void
expectSame(const T &want, const T &got, const std::string &what)
{
    if constexpr (std::is_floating_point_v<T>) {
        if (std::isnan(want)) {
            EXPECT_TRUE(std::isnan(got)) << what;
            return;
        }
    }
    EXPECT_EQ(want, got) << what;
}

/** Every value a Metrics report carries, one by one. */
void
expectSameMetrics(const Metrics &want, const Metrics &got)
{
#define SAME(f) expectSame(want.f, got.f, #f)
    SAME(config); SAME(workload); SAME(insts); SAME(cycles); SAME(ipc);
    SAME(cpi); SAME(avgOutstanding); SAME(avgLoadLatency);
    SAME(dramReads); SAME(iqOcc); SAME(robOcc); SAME(lqOcc);
    SAME(sqOcc); SAME(rfOcc); SAME(ltpOcc); SAME(ltpRegsOcc);
    SAME(ltpLoadsOcc); SAME(ltpStoresOcc); SAME(ltpEnabledFrac);
    SAME(parkedFrac); SAME(parked); SAME(unparked); SAME(forcedUnparks);
    SAME(pressureUnparks); SAME(llpredAccuracy); SAME(bpAccuracy);
    SAME(energy.iq); SAME(energy.rf); SAME(energy.ltp); SAME(ed2p);
    SAME(edp); SAME(weightedSpeedup); SAME(sampling.samples);
    SAME(sampling.fastForward); SAME(sampling.warmup);
    SAME(sampling.detail); SAME(sampling.meanIpc);
    SAME(sampling.ipcStdDev); SAME(sampling.ci95Half);
    SAME(sampling.ffKips); SAME(sampling.sampleIpcs);
    ASSERT_EQ(want.threads.size(), got.threads.size());
    for (std::size_t i = 0; i < want.threads.size(); ++i) {
        SAME(threads[i].workload); SAME(threads[i].insts);
        SAME(threads[i].cycles); SAME(threads[i].ipc);
    }
#undef SAME
}

TEST(Report, SweepReportRoundTripsValueByValue)
{
    // An SMT cell, a sampled cell without a CI (n = 1) and a NaN IPC
    // must all come back from the report text exactly.
    Metrics plain = distinctiveMetrics();
    Metrics smt = plain;
    smt.weightedSpeedup = 1.625;
    ThreadMetrics t0, t1;
    t0.workload = "a";
    t0.insts = 1500;
    t0.ipc = 1.2156;
    t1.workload = "b\tc";
    t1.cycles = 987;
    smt.threads = {t0, t1};
    Metrics no_ci = plain;
    no_ci.ipc = std::nan("");
    no_ci.sampling.samples = 1;
    no_ci.sampling.fastForward = 200000;
    no_ci.sampling.warmup = 2000;
    no_ci.sampling.detail = 5000;
    no_ci.sampling.meanIpc = 1.25;
    no_ci.sampling.ipcStdDev = std::nan("");
    no_ci.sampling.ci95Half = std::nan("");
    no_ci.sampling.ffKips = 24500.5;
    no_ci.sampling.sampleIpcs = {1.25};

    SweepResult result;
    result.name = "docs \"q\"";
    result.threads = 3;
    result.simulations = 3;
    result.wallMs = 12.3456;
    result.grid.put("r1", "plain", plain);
    result.grid.put("r1", "smt", smt);
    result.grid.put("r2", "no-ci", no_ci);

    JsonValue root = parseJson(reportToJson(result));
    const auto &f = root.object;
    EXPECT_EQ(f.size(), 5u);
    EXPECT_EQ(f.at("sweep").str, result.name);
    EXPECT_EQ(jsonToU64(f.at("threads")), 3u);
    EXPECT_EQ(jsonToU64(f.at("simulations")), 3u);
    EXPECT_EQ(f.at("wall_ms").str, "12.346");
    const auto &cells = f.at("results").array;
    ASSERT_EQ(cells.size(), 3u);
    std::size_t i = 0;
    for (const std::string &row : result.grid.rows())
        for (const std::string &series : result.grid.series(row)) {
            const auto &c = cells[i++].object;
            EXPECT_EQ(c.size(), 3u);
            EXPECT_EQ(c.at("row").str, row);
            EXPECT_EQ(c.at("series").str, series);
            SCOPED_TRACE(row + " / " + series);
            expectSameMetrics(result.grid.at(row, series),
                              metricsFromJson(c.at("metrics")));
        }
    // "Unavailable" is an absent key, never a number.
    const JsonValue &sampling =
        cells[2].object.at("metrics").object.at("sampling");
    EXPECT_EQ(sampling.object.count("ci95Half"), 0u);
    EXPECT_EQ(sampling.object.count("ipcStdDev"), 0u);
}

TEST(Report, BenchReportRoundTripsValueByValue)
{
    SimSpeedReport r;
    r.quick = true;
    r.seed = 7;
    r.reps = 3;
    SimSpeedCell kernel;
    kernel.label = "paper_loop";
    kernel.config = "base-iq64-rf128";
    kernel.detailedInsts = 24000;
    kernel.wallMs = 8.25;
    kernel.kips = 2909.0909090909090;
    kernel.profile.ticks = 6100;
    kernel.profile.sampled = 100;
    kernel.profile.clockNs = 31;
    for (int s = 0; s < TickProfile::kNumStages; ++s)
        kernel.profile.ns[std::size_t(s)] = 1000 + std::uint64_t(s);
    SimSpeedCell scenario;
    scenario.label = "fig6_IQ";
    scenario.config = "scenario";
    scenario.simulations = 280;
    scenario.detailedInsts = 1680000;
    scenario.wallMs = 1234.5;
    scenario.kips = 1360.875;
    SimSpeedCell smt = scenario;
    smt.label = "smt_pairs";
    r.kernelCells = {kernel};
    r.scenarioCells = {scenario};
    r.reportOnlyCells = {smt};
    r.totalInsts = 1704000;
    r.totalWallMs = 1242.75;
    r.totalKips = 1371.1529;
    r.referenceKips = {{"fig6_IQ", 1000.0}, {"smt_pairs", 0.0}};

    JsonValue root = parseJson(r.toJson());
    const auto &f = root.object;
    EXPECT_EQ(f.at("name").str, "simspeed");
    EXPECT_TRUE(f.at("quick").boolean);
    EXPECT_EQ(jsonToU64(f.at("seed")), 7u);
    EXPECT_EQ(jsonToU64(f.at("reps")), 3u);
    EXPECT_EQ(jsonToU64(f.at("threads")), 1u);
    const auto &total = f.at("total").object;
    EXPECT_EQ(jsonToU64(total.at("detailed_insts")), r.totalInsts);
    EXPECT_EQ(total.at("wall_ms").num, r.totalWallMs);
    EXPECT_EQ(total.at("kips").num, r.totalKips);

    auto expectCell = [&](const JsonValue &v, const SimSpeedCell &want) {
        SCOPED_TRACE(want.label);
        const auto &c = v.object;
        EXPECT_EQ(c.at("label").str, want.label);
        EXPECT_EQ(c.at("config").str, want.config);
        EXPECT_EQ(jsonToU64(c.at("simulations")), want.simulations);
        EXPECT_EQ(jsonToU64(c.at("detailed_insts")), want.detailedInsts);
        EXPECT_EQ(c.at("wall_ms").num, want.wallMs);
        EXPECT_EQ(c.at("kips").num, want.kips);
        auto ref = r.referenceKips.find(want.label);
        EXPECT_EQ(c.count("reference_kips"),
                  ref == r.referenceKips.end() ? 0u : 1u);
        if (ref != r.referenceKips.end()) {
            EXPECT_EQ(c.at("reference_kips").num, ref->second);
            // No ratio against a zero reference.
            EXPECT_EQ(c.count("speedup_vs_reference"),
                      ref->second > 0.0 ? 1u : 0u);
            if (ref->second > 0.0) {
                EXPECT_EQ(c.at("speedup_vs_reference").num,
                          want.kips / ref->second);
            }
        }
        EXPECT_EQ(c.count("profile"), want.profiled() ? 1u : 0u);
        if (!want.profiled())
            return;
        const auto &p = c.at("profile").object;
        EXPECT_EQ(jsonToU64(p.at("ticks")), want.profile.ticks);
        EXPECT_EQ(jsonToU64(p.at("sampled")), want.profile.sampled);
        EXPECT_EQ(jsonToU64(p.at("clock_ns")), want.profile.clockNs);
        EXPECT_EQ(jsonToU64(p.at("total_ns")), want.profile.totalNs());
        const auto &stages = p.at("stage_ns").object;
        EXPECT_EQ(stages.size(), std::size_t(TickProfile::kNumStages));
        for (int s = 0; s < TickProfile::kNumStages; ++s)
            EXPECT_EQ(jsonToU64(stages.at(TickProfile::stageName(s))),
                      want.profile.stageNs(s));
    };
    auto cells = [&](const char *list) -> const auto & {
        return f.at(list).array;
    };
    ASSERT_EQ(cells("kernels").size(), 1u);
    ASSERT_EQ(cells("scenarios").size(), 1u);
    ASSERT_EQ(cells("report_only_scenarios").size(), 1u);
    expectCell(cells("kernels")[0], kernel);
    expectCell(cells("scenarios")[0], scenario);
    expectCell(cells("report_only_scenarios")[0], smt);
}

TEST(Report, MalformedJsonThrows)
{
    EXPECT_THROW(metricsFromJson(parseJson("{\"ipc\": ")),
                 std::runtime_error);
    EXPECT_THROW(metricsFromJson(parseJson("not json at all")),
                 std::runtime_error);
    EXPECT_THROW(metricsFromJson(parseJson("{\"a\": 1} trailing")),
                 std::runtime_error);
}

TEST(Report, SweepReportContainsEveryCell)
{
    SweepResult result;
    result.name = "mini";
    result.threads = 3;
    result.simulations = 2;
    result.wallMs = 12.5;
    result.grid.put("r1", "s1", distinctiveMetrics());
    result.grid.put("r2", "s1", distinctiveMetrics());

    std::string json = reportToJson(result);
    EXPECT_NE(json.find("\"sweep\": \"mini\""), std::string::npos);
    EXPECT_NE(json.find("\"threads\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"r1\""), std::string::npos);
    EXPECT_NE(json.find("\"r2\""), std::string::npos);

    std::string csv = reportToCsv(result);
    // Header + one line per cell.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

} // namespace
} // namespace ltp
