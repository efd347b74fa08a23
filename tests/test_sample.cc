/**
 * @file
 * Tests for the sampled-simulation subsystem: the fast-forward engine,
 * `.ltcp` architectural checkpoints (round-trip byte identity +
 * corruption rejection, mirroring the `.lttr` property tests), the
 * interval Sampler (determinism, checkpoint equivalence, CI
 * aggregation), sampling-aware cell keys and scenario schema, and the
 * result cache's size-based gc.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/binio.hh"
#include "sample/checkpoint.hh"
#include "sample/fast_forward.hh"
#include "sample/sampler.hh"
#include "sample/warm_chain.hh"
#include "sim/cell_key.hh"
#include "sim/exec_backend.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"
#include "trace/trace_workload.hh"

namespace ltp {
namespace {

SamplePlan
smallPlan()
{
    SamplePlan p;
    p.fastForward = 4000;
    p.warmup = 800;
    p.detail = 2000;
    p.samples = 4;
    return p;
}

// ---------------------------------------------------------------------------
// SamplePlan
// ---------------------------------------------------------------------------

TEST(SamplePlanTest, EnabledPeriodAndToString)
{
    SamplePlan off;
    EXPECT_FALSE(off.enabled());

    SamplePlan p = smallPlan();
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.period(), 4000u + 800u + 2000u);
    EXPECT_EQ(p.toString(), "4000/800/2000 x4");
    EXPECT_TRUE(SamplePlan::defaults().enabled());
}

// ---------------------------------------------------------------------------
// Workload::skip
// ---------------------------------------------------------------------------

TEST(WorkloadSkipTest, KernelSkipMatchesRepeatedNext)
{
    WorkloadPtr a = makeKernel("graph_walk");
    WorkloadPtr b = makeKernel("graph_walk");
    a->reset(7);
    b->reset(7);
    for (int i = 0; i < 500; ++i)
        (void)a->next();
    b->skip(500);
    for (int i = 0; i < 32; ++i) {
        MicroOp ea = a->next(), eb = b->next();
        ASSERT_EQ(ea.pc, eb.pc) << "op " << i;
        ASSERT_EQ(ea.effAddr, eb.effAddr) << "op " << i;
    }
}

TEST(WorkloadSkipTest, TraceSkipMatchesRepeatedNext)
{
    TraceInfo info;
    info.kernel = "paper_loop";
    info.seed = 3;
    info.funcWarm = 500;
    info.pipeWarm = 100;
    info.detail = 400;
    auto reader =
        std::make_shared<const TraceReader>(recordTrace(info));
    TraceWorkload a(reader), b(reader);
    a.reset(3);
    b.reset(3);
    for (int i = 0; i < 200; ++i)
        (void)a.next();
    b.skip(200);
    for (int i = 0; i < 32; ++i)
        ASSERT_EQ(a.next().pc, b.next().pc) << "op " << i;
}

// ---------------------------------------------------------------------------
// FastForward
// ---------------------------------------------------------------------------

TEST(FastForwardTest, AdvancesToTargetAndCountsRetirement)
{
    SimConfig cfg = SimConfig::baseline();
    MemSystem mem(cfg.mem);
    FastForward ff(cfg, {"graph_walk"}, mem);
    EXPECT_EQ(ff.numThreads(), 1);
    EXPECT_EQ(ff.consumed(0), 0u);

    ff.advanceTo(10000);
    EXPECT_EQ(ff.consumed(0), 10000u);
    EXPECT_EQ(ff.retired(), 10000u);

    // Fixed sample positions only ever move forward; the target of
    // the current position is a no-op.
    ff.advanceTo(10000);
    EXPECT_EQ(ff.retired(), 10000u);
    ff.advanceTo(12000);
    EXPECT_EQ(ff.consumed(0), 12000u);
    EXPECT_EQ(ff.retired(), 12000u);
}

TEST(FastForwardTest, DeterministicAcrossRuns)
{
    SimConfig cfg = SimConfig::baseline();
    auto checkpointBytes = [&cfg]() {
        MemSystem mem(cfg.mem);
        FastForward ff(cfg, {"graph_walk"}, mem);
        ff.advanceTo(8000);
        return checkpointToBytes(
            captureCheckpoint(ff, mem, "graph_walk", cfg.seed));
    };
    EXPECT_EQ(checkpointBytes(), checkpointBytes());
}

// ---------------------------------------------------------------------------
// Checkpoint serialization (mirrors the .lttr property tests)
// ---------------------------------------------------------------------------

/** A checkpoint with nontrivial content in every section. */
Checkpoint
makeCheckpoint(std::uint64_t position = 20000)
{
    SimConfig cfg = SimConfig::baseline();
    MemSystem mem(cfg.mem);
    FastForward ff(cfg, {"graph_walk"}, mem);
    ff.advanceTo(position);
    return captureCheckpoint(ff, mem, "graph_walk", cfg.seed);
}

TEST(CheckpointTest, WriteReadWriteIsByteIdentical)
{
    Checkpoint ckpt = makeCheckpoint();
    std::string bytes = checkpointToBytes(ckpt);
    Checkpoint round = checkpointFromBytes(bytes);
    EXPECT_EQ(round.workload, "graph_walk");
    EXPECT_EQ(round.seed, ckpt.seed);
    ASSERT_EQ(round.threads.size(), 1u);
    EXPECT_EQ(round.threads[0].position, ckpt.threads[0].position);
    EXPECT_EQ(checkpointToBytes(round), bytes);
}

TEST(CheckpointTest, CorruptionIsRejected)
{
    std::string good = checkpointToBytes(makeCheckpoint(4000));
    ASSERT_NO_THROW((void)checkpointFromBytes(good));

    // Bad magic.
    std::string bad_magic = good;
    bad_magic[0] ^= 0x5a;
    EXPECT_THROW((void)checkpointFromBytes(bad_magic),
                 std::runtime_error);

    // Unsupported version (the u32 after the 8-byte magic).
    std::string bad_version = good;
    bad_version[8] = 99;
    EXPECT_THROW((void)checkpointFromBytes(bad_version),
                 std::runtime_error);

    // Truncations: mid-header, mid-payload, clipped CRC.
    for (std::size_t keep :
         {std::size_t(10), good.size() / 2, good.size() - 1})
        EXPECT_THROW((void)checkpointFromBytes(good.substr(0, keep)),
                     std::runtime_error)
            << "kept " << keep << " bytes";

    // A flipped payload byte must fail the CRC.
    std::string bad_payload = good;
    bad_payload[good.size() / 2] ^= 0x01;
    EXPECT_THROW((void)checkpointFromBytes(bad_payload),
                 std::runtime_error);

    // A flipped CRC byte must fail too.
    std::string bad_crc = good;
    bad_crc[good.size() - 1] ^= 0x01;
    EXPECT_THROW((void)checkpointFromBytes(bad_crc),
                 std::runtime_error);

    // Trailing garbage breaks the CRC placement.
    EXPECT_THROW((void)checkpointFromBytes(good + "x"),
                 std::runtime_error);
}

/** Re-seal a tampered image with a fresh CRC so only the semantic
 *  validation can reject it. */
std::string
resealed(std::string bytes)
{
    std::string body = bytes.substr(0, bytes.size() - 4);
    std::string out = body;
    putU32le(out, crc32(body));
    return out;
}

TEST(CheckpointTest, CrcValidButCraftedPayloadIsRejected)
{
    std::string good = checkpointToBytes(makeCheckpoint(4000));

    // First bp counter byte: header (8+4+4+8) + name (2+len) +
    // numThreads u32 + position u64 + tableBits u32 + history u64 +
    // counterCount u32.
    const std::size_t wl_len = std::string("graph_walk").size();
    const std::size_t counter0 =
        8 + 4 + 4 + 8 + 2 + wl_len + 4 + 8 + 4 + 8 + 4;

    // A 2-bit counter above 3, CRC re-sealed: semantic reject.
    {
        std::string bad = good;
        bad[counter0] = char(0x7f);
        EXPECT_THROW((void)checkpointFromBytes(resealed(bad)),
                     std::runtime_error);
    }
    // Absurd predictor geometry (tableBits), CRC-valid.
    {
        std::string bad = good;
        const std::size_t table_bits_off = 8 + 4 + 4 + 8 + 2 + wl_len +
                                           4 + 8;
        bad[table_bits_off] = char(0xff);
        EXPECT_THROW((void)checkpointFromBytes(resealed(bad)),
                     std::runtime_error);
    }
    // CRC-valid trailing garbage (payload padded before the footer)
    // must fail the exact-consumption check.
    {
        std::string body = good.substr(0, good.size() - 4) + "abcd";
        std::string bad = body;
        putU32le(bad, crc32(body));
        EXPECT_THROW((void)checkpointFromBytes(bad),
                     std::runtime_error);
    }
}

TEST(CheckpointTest, RestoreRejectsMismatchedRun)
{
    Checkpoint ckpt = makeCheckpoint(4000);

    SimConfig cfg = SimConfig::baseline();
    {
        // Wrong workload.
        MemSystem mem(cfg.mem);
        FastForward ff(cfg, {"paper_loop"}, mem);
        EXPECT_THROW(
            restoreCheckpoint(ckpt, ff, mem, "paper_loop", cfg.seed),
            std::runtime_error);
    }
    {
        // Wrong seed.
        MemSystem mem(cfg.mem);
        FastForward ff(cfg, {"graph_walk"}, mem);
        EXPECT_THROW(
            restoreCheckpoint(ckpt, ff, mem, "graph_walk", 99),
            std::runtime_error);
    }
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

TEST(SamplerTest, RejectsDisabledPlan)
{
    SimConfig cfg = SimConfig::baseline();
    EXPECT_THROW(Sampler(cfg, "graph_walk", SamplePlan{}),
                 std::runtime_error);
}

TEST(SamplerTest, DeterministicAndAggregatesConfidenceInterval)
{
    SimConfig cfg = SimConfig::baseline();
    SamplePlan plan = smallPlan();
    Metrics a = Sampler::runOnce(cfg, "graph_walk", plan);
    Metrics b = Sampler::runOnce(cfg, "graph_walk", plan);

    ASSERT_TRUE(a.sampling.enabled());
    EXPECT_EQ(a.sampling.samples, plan.samples);
    ASSERT_EQ(a.sampling.sampleIpcs.size(), std::size_t(plan.samples));
    EXPECT_GT(a.sampling.meanIpc, 0.0);
    EXPECT_GE(a.sampling.ci95Half, 0.0);

    // Mean matches the per-sample IPCs it claims to summarize.
    double mean = 0.0;
    for (double ipc : a.sampling.sampleIpcs)
        mean += ipc / double(a.sampling.sampleIpcs.size());
    EXPECT_NEAR(a.sampling.meanIpc, mean, 1e-12);

    // Bit-identical across runs (ffKips is wall-clock; exclude it).
    b.sampling.ffKips = a.sampling.ffKips;
    EXPECT_EQ(metricsToJson(a), metricsToJson(b));
}

TEST(SamplerTest, PhaseCallbackSeesAllThreePhases)
{
    SimConfig cfg = SimConfig::baseline();
    SamplePlan plan = smallPlan();
    plan.samples = 2;
    std::vector<std::string> phases;
    Sampler sampler(cfg, "paper_loop", plan);
    (void)sampler.run([&phases](const std::string &p) {
        phases.push_back(p);
    });
    // A lone participant advances its chain first (nobody else can),
    // then runs its sample tasks in order.
    EXPECT_EQ(phases, (std::vector<std::string>{
                          "fast-forward 1/2", "fast-forward 2/2",
                          "warmup 1/2", "sample 1/2", "warmup 2/2",
                          "sample 2/2"}));
}

TEST(SamplerTest, CheckpointRestoreReproducesFreshRun)
{
    // Learned classifier + LTP on: the checkpoint must carry every
    // input the detailed phase depends on.
    SimConfig cfg = SimConfig::ltpProposal(LtpMode::NU);
    const std::uint64_t P = 12000;

    // Fresh: one sample whose fast-forward phase covers [0, P).
    SamplePlan fresh_plan;
    fresh_plan.fastForward = P;
    fresh_plan.warmup = 800;
    fresh_plan.detail = 2000;
    fresh_plan.samples = 1;
    Metrics fresh = Sampler::runOnce(cfg, "graph_walk", fresh_plan);

    // Checkpointed: pay the same fast-forward once, serialize, then
    // resume with a zero-fast-forward plan.
    std::string bytes;
    {
        MemSystem mem(cfg.mem);
        FastForward ff(cfg, {"graph_walk"}, mem);
        ff.advanceTo(P);
        bytes = checkpointToBytes(
            captureCheckpoint(ff, mem, "graph_walk", cfg.seed));
    }
    SamplePlan resumed_plan = fresh_plan;
    resumed_plan.fastForward = 0;
    Sampler resumed(cfg, "graph_walk", resumed_plan);
    resumed.restoreFrom(checkpointFromBytes(bytes));
    Metrics restored = resumed.run();

    // The plan-bookkeeping fields legitimately differ (the resumed run
    // declared fastForward=0); the *measured* state must not.
    restored.sampling.ffKips = fresh.sampling.ffKips;
    restored.sampling.fastForward = fresh.sampling.fastForward;
    EXPECT_EQ(metricsToJson(restored), metricsToJson(fresh));
}

TEST(SamplerTest, OracleClassifierRunsUnderSampling)
{
    SimConfig cfg = SimConfig::limitStudy(LtpMode::NU);
    SamplePlan plan = smallPlan();
    plan.samples = 2;
    Metrics m = Sampler::runOnce(cfg, "graph_walk", plan);
    EXPECT_GT(m.sampling.meanIpc, 0.0);
    EXPECT_GT(m.insts, 0u);
}

TEST(SamplerTest, SampledIpcTracksFullDetailRun)
{
    SimConfig cfg = SimConfig::baseline();
    RunLengths full;
    full.funcWarm = 20000;
    full.pipeWarm = 2000;
    full.detail = 60000;
    Metrics detailed = Simulator::runOnce(cfg, "paper_loop", full);

    SamplePlan plan;
    plan.fastForward = 8000;
    plan.warmup = 1000;
    plan.detail = 2500;
    plan.samples = 6;
    Metrics sampled = Sampler::runOnce(cfg, "paper_loop", plan);

    // Deterministic, so this is a regression bound, not a flaky
    // statistical assertion: the sampled estimate must land within the
    // larger of its own CI and 10% of the full-detail IPC.
    double tol = std::max(sampled.sampling.ci95Half,
                          0.10 * detailed.ipc);
    EXPECT_NEAR(sampled.sampling.meanIpc, detailed.ipc, tol);
}

// ---------------------------------------------------------------------------
// Metrics aggregation
// ---------------------------------------------------------------------------

TEST(SamplingMetricsTest, StudentTTable)
{
    EXPECT_NEAR(studentT95(1), 12.706, 1e-9);
    EXPECT_NEAR(studentT95(7), 2.365, 1e-9);
    EXPECT_NEAR(studentT95(30), 2.042, 1e-9);
    EXPECT_NEAR(studentT95(31), 1.960, 1e-9);
    EXPECT_NEAR(studentT95(1000), 1.960, 1e-9);
    // No degrees of freedom → no critical value, not "zero": 0.0 once
    // gave --samples=1 runs a perfectly-confident zero-width CI.
    EXPECT_TRUE(std::isnan(studentT95(0)));
    EXPECT_TRUE(std::isnan(studentT95(-3)));
}

TEST(SamplingMetricsTest, SingleSampleReportsCiUnavailable)
{
    SimConfig cfg = SimConfig::baseline();
    SamplePlan plan = smallPlan();
    plan.samples = 1;
    Metrics m = Sampler::runOnce(cfg, "graph_walk", plan);

    ASSERT_TRUE(m.sampling.enabled());
    EXPECT_EQ(m.sampling.samples, 1);
    EXPECT_FALSE(m.sampling.hasCi());
    EXPECT_TRUE(std::isnan(m.sampling.ci95Half));
    EXPECT_TRUE(std::isnan(m.sampling.ipcStdDev));
    EXPECT_GT(m.sampling.meanIpc, 0.0);

    // JSON omits the dispersion keys (NaN is not valid JSON), and the
    // round trip restores "unavailable", never a numeric zero.
    std::string json = metricsToJson(m);
    EXPECT_NE(json.find("\"sampling\""), std::string::npos);
    EXPECT_EQ(json.find("ci95Half"), std::string::npos);
    EXPECT_EQ(json.find("ipcStdDev"), std::string::npos);
    Metrics round = metricsFromJson(parseJson(json));
    EXPECT_FALSE(round.sampling.hasCi());
    EXPECT_TRUE(std::isnan(round.sampling.ci95Half));

    // CSV leaves the ipcCi95 field empty rather than printing 0/nan.
    SweepResult result;
    result.name = "one-sample";
    result.grid.put("k", "c", m);
    std::string csv = reportToCsv(result);
    std::string last = csv.substr(csv.rfind(',') + 1);
    EXPECT_EQ(last, "\n");
}

TEST(SamplingMetricsTest, GroupAverageWithCiLessMemberDropsCi)
{
    SimConfig cfg = SimConfig::baseline();
    SamplePlan plan = smallPlan();
    Metrics a = Sampler::runOnce(cfg, "graph_walk", plan);
    SamplePlan one = plan;
    one.samples = 1;
    Metrics b = Sampler::runOnce(cfg, "paper_loop", one);

    ASSERT_TRUE(a.sampling.hasCi());
    ASSERT_FALSE(b.sampling.hasCi());

    // One CI-less member must invalidate the group interval — folding
    // its NaN (or a fake 0) into the quadrature sum would poison or
    // silently shrink it.  The mean and sample count stay usable.
    Metrics avg = averageMetrics({a, b}, "mixed-ci");
    ASSERT_TRUE(avg.sampling.enabled());
    EXPECT_FALSE(avg.sampling.hasCi());
    EXPECT_TRUE(std::isnan(avg.sampling.ci95Half));
    EXPECT_TRUE(std::isnan(avg.sampling.ipcStdDev));
    EXPECT_EQ(avg.sampling.samples,
              a.sampling.samples + b.sampling.samples);
    EXPECT_NEAR(avg.sampling.meanIpc,
                (a.sampling.meanIpc + b.sampling.meanIpc) / 2.0, 1e-12);

    // All-CI groups keep the quadrature combination bit-for-bit.
    Metrics c = Sampler::runOnce(cfg, "paper_loop", plan);
    Metrics good = averageMetrics({a, c}, "all-ci");
    EXPECT_TRUE(good.sampling.hasCi());
}

TEST(SamplingMetricsTest, AverageMetricsCombinesSamplingStats)
{
    SimConfig cfg = SimConfig::baseline();
    SamplePlan plan = smallPlan();
    Metrics a = Sampler::runOnce(cfg, "graph_walk", plan);
    Metrics b = Sampler::runOnce(cfg, "paper_loop", plan);

    Metrics avg = averageMetrics({a, b}, "pair");
    ASSERT_TRUE(avg.sampling.enabled());
    EXPECT_EQ(avg.sampling.samples,
              a.sampling.samples + b.sampling.samples);
    EXPECT_NEAR(avg.sampling.meanIpc,
                (a.sampling.meanIpc + b.sampling.meanIpc) / 2.0, 1e-12);
    EXPECT_NEAR(avg.sampling.ci95Half,
                std::sqrt(a.sampling.ci95Half * a.sampling.ci95Half +
                          b.sampling.ci95Half * b.sampling.ci95Half) /
                    2.0,
                1e-12);

    // A mixed group (one sampled, one full) must not claim sampling.
    Metrics full = Simulator::runOnce(cfg, "paper_loop",
                                      RunLengths::quick());
    EXPECT_FALSE(
        averageMetrics({a, full}, "mixed").sampling.enabled());
}

TEST(SamplingMetricsTest, JsonRoundTripPreservesSamplingBlock)
{
    SimConfig cfg = SimConfig::baseline();
    Metrics m = Sampler::runOnce(cfg, "graph_walk", smallPlan());
    Metrics round = metricsFromJson(parseJson(metricsToJson(m)));
    EXPECT_EQ(metricsToJson(round), metricsToJson(m));
    EXPECT_TRUE(round.sampling.enabled());
    EXPECT_EQ(round.sampling.sampleIpcs, m.sampling.sampleIpcs);

    // Non-sampled Metrics stay free of the block entirely.
    Metrics full = Simulator::runOnce(cfg, "paper_loop",
                                      RunLengths::quick());
    EXPECT_EQ(metricsToJson(full).find("sampling"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cell keys
// ---------------------------------------------------------------------------

TEST(SamplingCellKeyTest, EnabledPlanForksTheKey)
{
    SimConfig cfg = SimConfig::baseline();
    RunLengths lengths = RunLengths::quick();
    SamplePlan plan = smallPlan();
    SamplePlan disabled;

    std::string base = cellKeyFor(cfg, "paper_loop", lengths).hex;
    // Null and disabled plans leave every pre-sampling key unchanged.
    EXPECT_EQ(cellKeyFor(cfg, "paper_loop", lengths, nullptr).hex,
              base);
    EXPECT_EQ(cellKeyFor(cfg, "paper_loop", lengths, &disabled).hex,
              base);
    // An enabled plan forks it; different plans fork differently.
    std::string sampled =
        cellKeyFor(cfg, "paper_loop", lengths, &plan).hex;
    EXPECT_NE(sampled, base);
    SamplePlan other = plan;
    other.samples += 1;
    EXPECT_NE(cellKeyFor(cfg, "paper_loop", lengths, &other).hex,
              sampled);
}

// ---------------------------------------------------------------------------
// Scenario schema
// ---------------------------------------------------------------------------

TEST(SamplingScenarioTest, ParsesSamplingBlockIntoSpec)
{
    const char *text = R"({
        "name": "sampled",
        "lengths": "quick",
        "sampling": {"fastForward": 5000, "warmup": 500,
                     "detail": 1500, "samples": 3},
        "workloads": {"kernels": ["paper_loop"]},
        "configs": [{"series": "base"}]
    })";
    Scenario sc = scenarioFromJson(text);
    SweepSpec spec = sc.compile();
    ASSERT_TRUE(spec.sampling.enabled());
    EXPECT_EQ(spec.sampling.fastForward, 5000u);
    EXPECT_EQ(spec.sampling.warmup, 500u);
    EXPECT_EQ(spec.sampling.detail, 1500u);
    EXPECT_EQ(spec.sampling.samples, 3);

    // The explicit-jobs export round-trips the plan.
    Scenario round = scenarioFromJson(sweepSpecToJson(spec));
    EXPECT_EQ(round.compile().sampling.toString(),
              spec.sampling.toString());
}

TEST(SamplingScenarioTest, RejectsBadSamplingBlocks)
{
    auto parse = [](const std::string &sampling) {
        return scenarioFromJson(
            "{\"name\": \"s\", \"sampling\": " + sampling +
            ", \"workloads\": {\"kernels\": [\"paper_loop\"]}, "
            "\"configs\": [{\"series\": \"base\"}]}");
    };
    EXPECT_NO_THROW(parse("\"default\""));
    EXPECT_THROW(parse("{\"samples\": 0}"), std::runtime_error);
    EXPECT_THROW(parse("{\"detail\": 0}"), std::runtime_error);
    EXPECT_THROW(parse("{\"unknown\": 1}"), std::runtime_error);
    EXPECT_THROW(parse("7"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Runner integration + size-based cache gc
// ---------------------------------------------------------------------------

TEST(SamplingRunnerTest, SweepWithSamplingPlanProducesSampledCells)
{
    SweepSpec spec;
    spec.name = "sampled-sweep";
    spec.sampling = smallPlan();
    SimConfig cfg = SimConfig::baseline();
    spec.add("paper_loop", cfg.name, cfg, "paper_loop");
    spec.add("graph_walk", cfg.name, cfg, "graph_walk");

    SweepResult serial = Runner(1).run(spec);
    ASSERT_TRUE(
        serial.grid.at("paper_loop", cfg.name).sampling.enabled());

    // Parallel bit-identity holds for sampled cells too.
    SweepResult parallel = Runner(2).run(spec);
    for (const std::string &row : serial.grid.rows()) {
        Metrics a = serial.grid.at(row, cfg.name);
        Metrics b = parallel.grid.at(row, cfg.name);
        b.sampling.ffKips = a.sampling.ffKips;
        EXPECT_EQ(metricsToJson(a), metricsToJson(b)) << row;
    }
}

// ---------------------------------------------------------------------------
// Shared warming chains (matched-pair sampling)
// ---------------------------------------------------------------------------

/** Metrics JSON without the one host-time field. */
std::string
resultJson(Metrics m)
{
    m.sampling.ffKips = 0.0;
    return metricsToJson(m);
}

TEST(SharedChainTest, SweepIsIdenticalSoloSharedAndRerun)
{
    // Two configs x two kernels: one thread gives every cell its own
    // chain, four threads let each kernel's cells share one.
    SweepSpec spec;
    spec.name = "matched-pairs";
    spec.sampling = smallPlan();
    for (const char *kernel : {"graph_walk", "paper_loop"}) {
        SimConfig base = SimConfig::baseline();
        SimConfig ltp = SimConfig::ltpProposal(LtpMode::NRNU);
        spec.add(kernel, base.name, base, kernel);
        spec.add(kernel, ltp.name, ltp, kernel);
    }
    auto grid = [&spec](int threads) {
        SweepResult r = Runner(threads).run(spec);
        std::vector<std::string> out;
        for (const std::string &row : r.grid.rows())
            for (const std::string &series : r.grid.series(row))
                out.push_back(resultJson(r.grid.at(row, series)));
        return out;
    };
    std::vector<std::string> solo = grid(1);
    ASSERT_EQ(solo.size(), 4u);
    EXPECT_EQ(grid(4), solo);
    EXPECT_EQ(grid(4), solo);
    EXPECT_EQ(grid(1), solo);
    EXPECT_EQ(WarmChain::stats().liveChains, 0u);
}

TEST(SharedChainTest, MatchedPairsStartFromIdenticalPoints)
{
    SamplePlan plan = smallPlan();
    SimConfig base = SimConfig::baseline();
    SimConfig ltp = SimConfig::ltpProposal(LtpMode::NRNU);
    Sampler a(base, "graph_walk", plan), b(ltp, "graph_walk", plan);

    // Hold whichever thread reports first until the other has joined
    // too, so both are enrolled before any point can be freed: one
    // chain, deterministically.
    std::mutex mutex;
    std::condition_variable cv;
    int arrived = 0;
    auto rendezvous = [&](bool *first) {
        return [&, first](const std::string &) {
            if (!*first)
                return;
            *first = false;
            std::unique_lock<std::mutex> lock(mutex);
            arrived += 1;
            cv.notify_all();
            cv.wait(lock, [&] { return arrived == 2; });
        };
    };
    bool a_first = true, b_first = true;
    std::size_t built = WarmChain::stats().built;
    Metrics ma, mb;
    std::thread ta([&] { ma = a.run(rendezvous(&a_first)); });
    std::thread tb([&] { mb = b.run(rendezvous(&b_first)); });
    ta.join();
    tb.join();
    EXPECT_EQ(WarmChain::stats().built, built + 1);
    EXPECT_NE(resultJson(ma), resultJson(mb)); // the configs differ

    // Same key, same S_i for every sample.
    EXPECT_EQ(a.chainSpec().key(), b.chainSpec().key());
    ASSERT_EQ(a.sampleStarts().size(), std::size_t(plan.samples));
    EXPECT_EQ(a.sampleStarts(), b.sampleStarts());

    // Both configs' tasks receive byte-identical points — the same
    // bytes a chain built from the public pieces captures there.
    std::vector<std::string> seen[2] = {
        std::vector<std::string>(std::size_t(plan.samples)),
        std::vector<std::string>(std::size_t(plan.samples))};
    WarmChain::Participant pa, pb;
    auto record = [&base](std::vector<std::string> *out) {
        return [out, &base](int i, WarmPoint &point,
                            const std::function<void(const char *)> &) {
            // Capture through an engine placed at the point's state.
            FastForward at(base, {"graph_walk"}, point.mem);
            at.skip(0, point.threads[0].position);
            at.branchPred(0).restore(point.threads[0].bpred);
            (*out)[std::size_t(i)] = checkpointToBytes(
                captureCheckpoint(at, point.mem, "graph_walk", base.seed));
            return Metrics{};
        };
    };
    pa.run = record(&seen[0]);
    pb.run = record(&seen[1]);
    auto chain = WarmChain::join(a.chainSpec(), pa);
    EXPECT_EQ(WarmChain::join(b.chainSpec(), pb), chain);
    chain->participate(pa, {});
    chain->participate(pb, {});
    EXPECT_EQ(seen[0], seen[1]);
    MemSystem mem(base.mem);
    FastForward ff(base, {"graph_walk"}, mem);
    for (int i = 0; i < plan.samples; ++i) {
        std::uint64_t start = std::uint64_t(i + 1) * plan.fastForward +
                              std::uint64_t(i) * (plan.warmup + plan.detail);
        EXPECT_EQ(a.sampleStarts()[std::size_t(i)], start);
        ff.advanceTo(start);
        EXPECT_EQ(seen[0][std::size_t(i)],
                  checkpointToBytes(
                      captureCheckpoint(ff, mem, "graph_walk", base.seed)))
            << "sample " << i;
    }

    // Each config alone measures exactly what it measured paired.
    EXPECT_EQ(resultJson(Sampler::runOnce(base, "graph_walk", plan)),
              resultJson(ma));
    EXPECT_EQ(resultJson(Sampler::runOnce(ltp, "graph_walk", plan)),
              resultJson(mb));
}

TEST(SharedChainTest, FreedChainIsRecomputedBitIdentically)
{
    SimConfig cfg = SimConfig::ltpProposal(LtpMode::NU);
    SamplePlan plan = smallPlan();
    std::size_t built = WarmChain::stats().built;
    Sampler first(cfg, "graph_walk", plan);
    Metrics m1 = first.run();
    // The last participant out freed every point and unregistered.
    EXPECT_EQ(WarmChain::stats().liveChains, 0u);

    Sampler second(cfg, "graph_walk", plan);
    Metrics m2 = second.run();
    EXPECT_EQ(WarmChain::stats().built, built + 2);
    EXPECT_EQ(second.sampleStarts(), first.sampleStarts());
    EXPECT_EQ(resultJson(m2), resultJson(m1));
}

class SampleCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (std::filesystem::temp_directory_path() /
                ("ltp_sample_cache_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        std::filesystem::remove_all(dir_);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string
    entryPath(const std::string &key) const
    {
        return dir_ + "/" + key.substr(0, 2) + "/" + key.substr(2, 2) +
               "/" + key + ".json";
    }

    std::string dir_;
};

TEST_F(SampleCacheTest, GcEvictsOldestFirstDownToMaxBytes)
{
    ResultCache cache(dir_);
    RunLengths lengths = RunLengths::quick();
    Metrics m = Simulator::runOnce(SimConfig::baseline(), "paper_loop",
                                   lengths);

    // Three entries with strictly increasing mtimes.
    std::vector<CellKey> keys;
    for (int seed = 1; seed <= 3; ++seed) {
        SimConfig cfg = SimConfig::baseline().withSeed(seed);
        CellKey key = cellKeyFor(cfg, "paper_loop", lengths);
        cache.store(key, cfg, lengths, m);
        keys.push_back(key);
        auto t = std::filesystem::file_time_type::clock::now() -
                 std::chrono::hours(3 - seed);
        std::filesystem::last_write_time(entryPath(key.hex), t);
    }

    std::uint64_t total = cache.stats().bytes;
    std::uint64_t per_entry = total / 3;

    // Budget for two entries: the oldest (seed 1) goes, newest stay.
    std::size_t removed = cache.gc(0.0, total - per_entry / 2);
    EXPECT_EQ(removed, 1u);
    Metrics out;
    EXPECT_FALSE(cache.lookup(keys[0], &out));
    EXPECT_TRUE(cache.lookup(keys[1], &out));
    EXPECT_TRUE(cache.lookup(keys[2], &out));

    // maxBytes=0 means no size limit: nothing further to remove.
    EXPECT_EQ(cache.gc(0.0, 0), 0u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST_F(SampleCacheTest, SampledAndFullRunsNeverAlias)
{
    auto cache = std::make_shared<ResultCache>(dir_);
    auto backend = std::make_shared<CachedBackend>(
        LocalBackend::instance(), cache);

    SweepSpec spec;
    spec.name = "alias-check";
    spec.lengths = RunLengths::quick();
    SimConfig cfg = SimConfig::baseline();
    spec.add("paper_loop", cfg.name, cfg, "paper_loop");

    // Full run populates one entry; the sampled variant of the same
    // cell must miss it and store a second entry.
    (void)Runner(1, backend).run(spec);
    EXPECT_EQ(backend->hits(), 0u);
    spec.sampling = smallPlan();
    (void)Runner(1, backend).run(spec);
    EXPECT_EQ(backend->hits(), 0u);
    EXPECT_EQ(cache->stats().entries, 2u);

    // Re-running each form hits its own entry, sampling stats intact.
    SweepResult again = Runner(1, backend).run(spec);
    EXPECT_EQ(backend->hits(), 1u);
    ASSERT_TRUE(
        again.grid.at("paper_loop", cfg.name).sampling.enabled());
    EXPECT_EQ(again.grid.at("paper_loop", cfg.name).sampling.samples,
              spec.sampling.samples);
}

} // namespace
} // namespace ltp
