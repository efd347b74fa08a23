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
#include <vector>

#include "common/thread_pool.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"

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

TEST(Report, MetricsTreeRendersLikeTheParsedReport)
{
    // metricsTree is kept in step with metricsToJson by hand: every
    // block (SMT threads, sampling with and without a CI, NaN values)
    // must build the tree the text parses to.
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
    Metrics sampled = plain;
    sampled.sampling.samples = 3;
    sampled.sampling.fastForward = 200000;
    sampled.sampling.warmup = 2000;
    sampled.sampling.detail = 5000;
    sampled.sampling.meanIpc = 1.25;
    sampled.sampling.ipcStdDev = 0.125;
    sampled.sampling.ci95Half = 0.0625;
    sampled.sampling.ffKips = 24500.5;
    sampled.sampling.sampleIpcs = {1.0, 1.25, 1.5};
    Metrics no_ci = sampled;
    no_ci.sampling.samples = 1;
    no_ci.sampling.ipcStdDev = std::nan("");
    no_ci.sampling.ci95Half = std::nan("");
    no_ci.ipc = std::nan("");
    for (const Metrics &m : {plain, smt, sampled, no_ci}) {
        std::string want = writeJsonCompact(parseJson(metricsToJson(m)));
        EXPECT_EQ(writeJsonCompact(metricsTree(m)), want);
        EXPECT_EQ(metricsToJson(metricsFromJson(metricsTree(m))),
                  metricsToJson(m));
    }
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
