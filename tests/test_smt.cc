/**
 * @file
 * SMT (multi-context) core tests.
 *
 * The two contracts under test:
 *  1. **N=1 invisibility** — a single-threaded machine (the paper's
 *     configuration) is bit-identical to the pre-SMT simulator: the
 *     numThreads/fetchPolicy fields, the smt: workload plumbing, and
 *     the per-thread metrics machinery must not perturb a single
 *     context's Metrics in any field.
 *  2. **2-way integrity** — a multiprogrammed pair completes under
 *     both fetch policies, reports per-thread slices whose commit
 *     counts match the same kernels run standalone (fixed instruction
 *     samples: counts are exact up to commit-width crossing jitter,
 *     IPC is *expected* to differ — that is the contention being
 *     modelled).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/simulator.hh"
#include "trace/trace_file.hh"
#include "trace/trace_workload.hh"

#ifndef LTP_SCENARIO_DIR
#define LTP_SCENARIO_DIR "scenarios"
#endif

namespace ltp {
namespace {

RunLengths
tiny()
{
    return RunLengths{3000, 500, 1500};
}

// ---------------------------------------------------------------------
// smt: workload-tuple names

TEST(SmtNames, RoundTripAndMembership)
{
    EXPECT_TRUE(isSmtName("smt:a+b"));
    EXPECT_FALSE(isSmtName("graph_walk"));
    EXPECT_FALSE(isSmtName("trace:foo.lttr"));

    std::vector<std::string> members = {"graph_walk", "dense_compute"};
    std::string name = smtName(members);
    EXPECT_EQ(name, "smt:graph_walk+dense_compute");
    EXPECT_EQ(smtMembers(name), members);

    EXPECT_EQ(smtMembers("smt:solo"),
              std::vector<std::string>{"solo"});
    EXPECT_THROW(smtMembers("smt:"), std::runtime_error);
    // Malformed tuples must not silently drop members.
    EXPECT_THROW(smtMembers("smt:a+"), std::runtime_error);
    EXPECT_THROW(smtMembers("smt:a++b"), std::runtime_error);
    // '+' is the separator and cannot appear inside a member.
    EXPECT_THROW(smtName({"a", "dir+x/b.lttr"}), std::runtime_error);
    EXPECT_THROW(smtName({""}), std::runtime_error);
}

// ---------------------------------------------------------------------
// N=1 invisibility

TEST(SmtNEquals1, ExplicitSingleThreadConfigIsBitIdentical)
{
    // numThreads=1 spelled out, under either fetch policy, must not
    // change a single field of the Metrics JSON.
    Metrics base = Simulator::runOnce(SimConfig::ltpProposal(LtpMode::NRNU),
                                      "graph_walk", tiny());
    for (const char *policy : {"roundRobin", "icount"}) {
        SimConfig cfg = SimConfig::ltpProposal(LtpMode::NRNU);
        applyOverride(cfg, "core.numThreads", "1");
        applyOverride(cfg, "core.fetchPolicy", policy);
        Metrics m = Simulator::runOnce(cfg, "graph_walk", tiny());
        EXPECT_EQ(metricsToJson(base), metricsToJson(m)) << policy;
    }
}

TEST(SmtNEquals1, SingleMemberTupleIsBitIdentical)
{
    // The smt: plumbing with one member is the member.
    Metrics plain = Simulator::runOnce(SimConfig::baseline(),
                                       "dense_compute", tiny());
    Metrics tuple = Simulator::runOnce(SimConfig::baseline(),
                                       "smt:dense_compute", tiny());
    EXPECT_EQ(metricsToJson(plain), metricsToJson(tuple));
}

TEST(SmtNEquals1, SingleThreadJsonHasNoSmtBlock)
{
    Metrics m = Simulator::runOnce(SimConfig::baseline(), "paper_loop",
                                   tiny());
    ASSERT_EQ(m.threads.size(), 1u);
    EXPECT_EQ(metricsToJson(m).find("\"smt\""), std::string::npos);
    // The one per-thread slice mirrors the aggregate numbers.
    EXPECT_EQ(m.threads[0].insts, m.insts);
    EXPECT_EQ(m.threads[0].cycles, m.cycles);
}

// ---------------------------------------------------------------------
// 2-way multiprogrammed runs

class SmtPairProp : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SmtPairProp, PairCompletesAndThreadCountsMatchStandalone)
{
    const std::string kernelA = "graph_walk";
    const std::string kernelB = "dense_compute";

    SimConfig cfg = SimConfig::ltpProposal(LtpMode::NRNU);
    applyOverride(cfg, "core.fetchPolicy", GetParam());
    Metrics smt = Simulator::runOnce(
        cfg, smtName({kernelA, kernelB}), tiny());

    ASSERT_EQ(smt.threads.size(), 2u);
    EXPECT_EQ(smt.workload, kernelA + "+" + kernelB);
    EXPECT_EQ(smt.threads[0].workload, kernelA);
    EXPECT_EQ(smt.threads[1].workload, kernelB);

    // Per-thread commit counts are fixed instruction samples: each
    // thread commits its quota exactly, plus at most one commit
    // group's crossing jitter — the *same* contract its standalone
    // run obeys.  (IPC differs under contention by design; counts do
    // not.)
    Metrics aloneA = Simulator::runOnce(cfg, kernelA, tiny());
    Metrics aloneB = Simulator::runOnce(cfg, kernelB, tiny());
    std::uint64_t quota = tiny().detail;
    std::uint64_t width = std::uint64_t(cfg.core.commitWidth);
    for (const Metrics *alone : {&aloneA, &aloneB}) {
        ASSERT_EQ(alone->threads.size(), 1u);
        EXPECT_GE(alone->threads[0].insts, quota);
        EXPECT_LT(alone->threads[0].insts, quota + width);
    }
    for (const ThreadMetrics &tm : smt.threads) {
        EXPECT_GE(tm.insts, quota);
        EXPECT_LT(tm.insts, quota + width);
        EXPECT_GT(tm.ipc, 0.0);
        EXPECT_GE(tm.cycles, quota / std::uint64_t(cfg.core.commitWidth));
    }
    std::uint64_t diffA = smt.threads[0].insts > aloneA.threads[0].insts
                              ? smt.threads[0].insts -
                                    aloneA.threads[0].insts
                              : aloneA.threads[0].insts -
                                    smt.threads[0].insts;
    std::uint64_t diffB = smt.threads[1].insts > aloneB.threads[0].insts
                              ? smt.threads[1].insts -
                                    aloneB.threads[0].insts
                              : aloneB.threads[0].insts -
                                    smt.threads[1].insts;
    EXPECT_LE(diffA, width);
    EXPECT_LE(diffB, width);

    // Contention can only stretch a thread relative to running alone.
    EXPECT_GE(smt.threads[0].cycles, aloneA.threads[0].cycles);
    EXPECT_GE(smt.threads[1].cycles, aloneB.threads[0].cycles);

    // Weighted speedup: bounded by the thread count, positive, and
    // computable from the standalone runs.
    double ws = weightedSpeedup(smt, {aloneA, aloneB});
    EXPECT_GT(ws, 0.0);
    EXPECT_LE(ws, 2.0 + 1e-9);

    // The aggregate region closes when the last thread closes.
    EXPECT_EQ(smt.cycles,
              std::max(smt.threads[0].cycles, smt.threads[1].cycles));
    EXPECT_EQ(smt.insts, smt.threads[0].insts + smt.threads[1].insts);
}

INSTANTIATE_TEST_SUITE_P(Policies, SmtPairProp,
                         ::testing::Values("roundRobin", "icount"),
                         [](const ::testing::TestParamInfo<const char *>
                                &info) {
                             return std::string(info.param);
                         });

TEST(SmtRun, HomogeneousPairReplicatesTheKernel)
{
    // A plain kernel name on a 2-context core runs two copies.
    SimConfig cfg = SimConfig::baseline();
    applyOverride(cfg, "core.numThreads", "2");
    Metrics m = Simulator::runOnce(cfg, "paper_loop", tiny());
    ASSERT_EQ(m.threads.size(), 2u);
    EXPECT_EQ(m.threads[0].workload, "paper_loop");
    EXPECT_EQ(m.threads[1].workload, "paper_loop");
    EXPECT_EQ(m.workload, "paper_loop+paper_loop");
}

TEST(SmtRun, TupleSizeConflictsWithNumThreads)
{
    SimConfig cfg = SimConfig::baseline();
    applyOverride(cfg, "core.numThreads", "3");
    EXPECT_THROW(Simulator::runOnce(
                     cfg, "smt:paper_loop+graph_walk", tiny()),
                 std::runtime_error);
}

TEST(SmtRun, ParkingFreesSharedWindowForTheCoRunner)
{
    // The paper's claim, in the SMT setting: parking the memory-bound
    // thread's stalled instructions must not slow the compute-bound
    // co-runner down vs. the same pair with LTP off — the parked
    // thread stops squatting on the shared IQ.  (Round-robin keeps
    // fetch bandwidth fair so the comparison isolates window
    // contention.)
    Metrics off = Simulator::runOnce(
        SimConfig::baseline(), "smt:graph_walk+dense_compute", tiny());
    Metrics on = Simulator::runOnce(
        SimConfig::ltpProposal(LtpMode::NRNU).withIq(64).withRegs(128),
        "smt:graph_walk+dense_compute", tiny());
    ASSERT_EQ(off.threads.size(), 2u);
    ASSERT_EQ(on.threads.size(), 2u);
    EXPECT_GT(on.parked, 0u);
    // dense_compute (thread 1) must run at least as fast with the
    // co-runner parked, with headroom for second-order noise.
    EXPECT_LE(on.threads[1].cycles,
              off.threads[1].cycles * 11 / 10 + 50);
}

TEST(SmtRun, BoundedTraceMembersSurviveCoRunnerSkew)
{
    // Regression: a fast thread must not keep consuming its stream
    // while a much slower co-runner finishes — a bounded trace member
    // recorded at exactly this staging would be walked off its end.
    // The quota fetch-gate caps every thread at its recorded region.
    namespace fs = std::filesystem;
    std::string dir = ::testing::TempDir() + "ltp_smt_traces";
    fs::create_directories(dir);
    RunLengths l = tiny();
    auto record = [&](const std::string &kernel) {
        TraceInfo info;
        info.kernel = kernel;
        info.seed = 1;
        info.funcWarm = l.funcWarm;
        info.pipeWarm = l.pipeWarm;
        info.detail = l.detail;
        std::string path = dir + "/" + kernel + ".lttr";
        writeTraceFile(path, recordTrace(info));
        return traceName(path);
    };
    // dense_compute finishes its quota many times faster than
    // graph_walk — the exact skew that used to exhaust its trace.
    std::string pair = smtName({record("graph_walk"),
                                record("dense_compute")});
    Metrics m = Simulator::runOnce(SimConfig::baseline(), pair, l);
    ASSERT_EQ(m.threads.size(), 2u);
    EXPECT_EQ(m.workload, "graph_walk+dense_compute");
    EXPECT_GE(m.threads[0].insts, l.detail);
    EXPECT_GE(m.threads[1].insts, l.detail);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Metrics serialization of the SMT breakdown

TEST(SmtMetricsJson, RoundTripCoversPerThreadFields)
{
    Metrics m;
    m.config = "cfg";
    m.workload = "a+b";
    m.insts = 3000;
    m.cycles = 1234;
    m.ipc = 2.431;
    m.weightedSpeedup = 1.625;
    ThreadMetrics t0;
    t0.workload = "a";
    t0.insts = 1500;
    t0.cycles = 1234;
    t0.ipc = 1.2156;
    ThreadMetrics t1;
    t1.workload = "b";
    t1.insts = 1500;
    t1.cycles = 987;
    t1.ipc = 1.5198;
    m.threads = {t0, t1};

    std::string json = metricsToJson(m);
    EXPECT_NE(json.find("\"smt\""), std::string::npos);
    Metrics back = metricsFromJson(parseJson(json));
    ASSERT_EQ(back.threads.size(), 2u);
    EXPECT_EQ(back.threads[0].workload, "a");
    EXPECT_EQ(back.threads[1].workload, "b");
    EXPECT_EQ(back.threads[0].insts, 1500u);
    EXPECT_EQ(back.threads[1].cycles, 987u);
    EXPECT_DOUBLE_EQ(back.threads[0].ipc, 1.2156);
    EXPECT_DOUBLE_EQ(back.weightedSpeedup, 1.625);
    // Second trip is textually stable.
    EXPECT_EQ(json, metricsToJson(back));
}

TEST(SmtMetricsJson, WeightedSpeedupRejectsShapeMismatch)
{
    Metrics smt;
    smt.threads.resize(2);
    smt.threads[0].ipc = 1.0;
    smt.threads[1].ipc = 1.0;
    EXPECT_THROW(weightedSpeedup(smt, {}), std::runtime_error);
    Metrics alone;
    alone.ipc = 0.0;
    EXPECT_THROW(weightedSpeedup(smt, {alone, alone}),
                 std::runtime_error);
    alone.ipc = 2.0;
    EXPECT_DOUBLE_EQ(weightedSpeedup(smt, {alone, alone}), 1.0);
}

// ---------------------------------------------------------------------
// Scenario schema: workloads.pairs

TEST(SmtScenario, PairsCompileToSmtJobs)
{
    Scenario sc = loadScenarioFile(std::string(LTP_SCENARIO_DIR) +
                                   "/smt_pairs.json");
    ASSERT_EQ(sc.workloadKind, Scenario::WorkloadKind::Pairs);
    SweepSpec spec = sc.compile(1);
    ASSERT_FALSE(spec.jobs.empty());
    for (const SweepJob &job : spec.jobs) {
        ASSERT_EQ(job.kernels.size(), 1u);
        EXPECT_TRUE(isSmtName(job.kernels[0])) << job.kernels[0];
        EXPECT_GE(smtMembers(job.kernels[0]).size(), 2u);
    }
    // The fetch-policy sweep names both policies.
    bool saw_rr = false, saw_icount = false;
    for (const SweepJob &job : spec.jobs) {
        saw_rr = saw_rr ||
                 job.cfg.core.fetchPolicy == FetchPolicy::RoundRobin;
        saw_icount = saw_icount ||
                     job.cfg.core.fetchPolicy == FetchPolicy::ICount;
    }
    EXPECT_TRUE(saw_rr);
    EXPECT_TRUE(saw_icount);
}

TEST(SmtScenario, PairsRejectSingletonsAndUnknownKernels)
{
    auto parse = [](const std::string &pairs) {
        scenarioFromJson("{\"name\": \"x\", \"workloads\": {\"pairs\": " +
                         pairs +
                         "}, \"configs\": [{\"series\": \"s\"}]}");
    };
    EXPECT_THROW(parse("[[\"paper_loop\"]]"), std::runtime_error);
    EXPECT_THROW(parse("[]"), std::runtime_error);
    EXPECT_THROW(parse("[[\"paper_loop\", \"nope\"]]"),
                 std::runtime_error);
    EXPECT_NO_THROW(parse("[[\"paper_loop\", \"graph_walk\"]]"));
}

TEST(SmtScenario, PairSweepRunsBothSeries)
{
    // A miniature in-C++ pairs study: baseline vs LTP over one pair,
    // sharded — per-thread columns land in the grid.
    SweepSpec spec;
    spec.name = "smt_mini";
    spec.lengths = tiny();
    std::string pair = smtName({"indirect_stream_fp", "div_heavy"});
    spec.add("pair", "base", SimConfig::baseline(), pair);
    spec.add("pair", "ltp", SimConfig::ltpProposal(LtpMode::NRNU), pair);
    SweepResult result = Runner(2).run(spec);
    for (const char *series : {"base", "ltp"}) {
        const Metrics &m = result.grid.at("pair", series);
        ASSERT_EQ(m.threads.size(), 2u) << series;
        EXPECT_GT(m.threads[0].ipc, 0.0);
        EXPECT_GT(m.threads[1].ipc, 0.0);
    }
}

} // namespace
} // namespace ltp
