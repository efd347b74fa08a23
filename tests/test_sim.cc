/**
 * @file
 * Tests for the sim layer: config presets, staging, metrics extraction
 * and averaging, the Section 4.1 MLP classifier, and experiment
 * helpers.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/mlp_class.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"

namespace ltp {
namespace {

TEST(Config, BaselineEncodesTable1)
{
    SimConfig cfg = SimConfig::baseline();
    EXPECT_EQ(cfg.core.fetchWidth, 8);
    EXPECT_EQ(cfg.core.issueWidth, 6);
    EXPECT_EQ(cfg.core.robSize, 256);
    EXPECT_EQ(cfg.core.iqSize, 64);
    EXPECT_EQ(cfg.core.lqSize, 64);
    EXPECT_EQ(cfg.core.sqSize, 32);
    EXPECT_EQ(cfg.core.intRegs, 128);
    EXPECT_EQ(cfg.core.fpRegs, 128);
    EXPECT_EQ(cfg.mem.l1d.sizeKB, 32);
    EXPECT_EQ(cfg.mem.l2.sizeKB, 256);
    EXPECT_EQ(cfg.mem.l3.sizeKB, 1024);
    EXPECT_TRUE(cfg.mem.prefetchEnabled);
    EXPECT_EQ(cfg.mem.prefetchDegree, 4);
    EXPECT_EQ(cfg.core.ltp.mode, LtpMode::Off);
}

TEST(Config, ProposalShrinksIqAndRf)
{
    SimConfig cfg = SimConfig::ltpProposal();
    EXPECT_EQ(cfg.core.iqSize, 32);
    EXPECT_EQ(cfg.core.intRegs, 96);
    EXPECT_EQ(cfg.core.ltp.mode, LtpMode::NU);
    EXPECT_EQ(cfg.core.ltp.entries, 128);
    EXPECT_EQ(cfg.core.ltp.insertPorts, 4);
    EXPECT_EQ(cfg.core.ltp.uitEntries, 256);
    EXPECT_TRUE(cfg.core.ltp.useMonitor);
}

TEST(Config, LimitStudyUnbounded)
{
    SimConfig cfg = SimConfig::limitStudy(LtpMode::NRNU);
    EXPECT_TRUE(isInfinite(cfg.core.iqSize));
    EXPECT_TRUE(isInfinite(cfg.core.intRegs));
    EXPECT_TRUE(isInfinite(cfg.core.lqSize));
    EXPECT_TRUE(isInfinite(cfg.core.sqSize));
    EXPECT_TRUE(isInfinite(cfg.core.ltp.entries));
    EXPECT_EQ(cfg.core.ltp.classifier, ClassifierKind::Oracle);
    EXPECT_TRUE(cfg.core.ltp.delayLqSq);
}

TEST(Config, FluentMutatorsChain)
{
    SimConfig cfg = SimConfig::baseline()
                        .withIq(48)
                        .withRegs(112)
                        .withLq(40)
                        .withSq(24)
                        .withSeed(9)
                        .withName("custom");
    EXPECT_EQ(cfg.core.iqSize, 48);
    EXPECT_EQ(cfg.core.intRegs, 112);
    EXPECT_EQ(cfg.core.lqSize, 40);
    EXPECT_EQ(cfg.core.sqSize, 24);
    EXPECT_EQ(cfg.seed, 9u);
    EXPECT_EQ(cfg.name, "custom");
}

TEST(Simulator, RunsDetailLengthWithinCommitWidth)
{
    RunLengths lengths = RunLengths::quick();
    Metrics m = Simulator::runOnce(SimConfig::baseline(), "paper_loop",
                                   lengths);
    EXPECT_GE(m.insts, lengths.detail);
    EXPECT_LT(m.insts, lengths.detail + 8);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_NEAR(m.ipc * m.cpi, 1.0, 1e-6);
    EXPECT_EQ(m.workload, "paper_loop");
}

TEST(Simulator, DeterministicAcrossRuns)
{
    Metrics a = Simulator::runOnce(SimConfig::baseline(), "hash_probe",
                                   RunLengths::quick());
    Metrics b = Simulator::runOnce(SimConfig::baseline(), "hash_probe",
                                   RunLengths::quick());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.avgOutstanding, b.avgOutstanding);
}

TEST(Simulator, SeedChangesTiming)
{
    Metrics a = Simulator::runOnce(SimConfig::baseline().withSeed(1),
                                   "bucket_shuffle", RunLengths::quick());
    Metrics b = Simulator::runOnce(SimConfig::baseline().withSeed(2),
                                   "bucket_shuffle", RunLengths::quick());
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(Metrics, AverageAggregates)
{
    Metrics a;
    a.ipc = 1.0;
    a.cycles = 100;
    a.insts = 100;
    a.avgOutstanding = 2.0;
    Metrics b;
    b.ipc = 3.0;
    b.cycles = 300;
    b.insts = 100;
    b.avgOutstanding = 4.0;
    Metrics avg = averageMetrics({a, b}, "group");
    EXPECT_DOUBLE_EQ(avg.ipc, 2.0);
    EXPECT_DOUBLE_EQ(avg.avgOutstanding, 3.0);
    EXPECT_EQ(avg.insts, 200u);
    EXPECT_EQ(avg.workload, "group");
}

TEST(Metrics, DeltasAgainstBase)
{
    Metrics base;
    base.ipc = 2.0;
    base.ed2p = 100.0;
    Metrics x;
    x.ipc = 1.8;
    x.ed2p = 60.0;
    EXPECT_NEAR(x.perfDeltaPct(base), -10.0, 1e-9);
    EXPECT_NEAR(x.ed2pDeltaPct(base), -40.0, 1e-9);
}

TEST(Experiment, ResultGridStoresAndFetches)
{
    ResultGrid grid;
    Metrics m;
    m.ipc = 1.5;
    grid.put("64", "NoLTP", m);
    EXPECT_TRUE(grid.has("64", "NoLTP"));
    EXPECT_FALSE(grid.has("64", "LTP"));
    EXPECT_DOUBLE_EQ(grid.at("64", "NoLTP").ipc, 1.5);
}

TEST(Experiment, ResultGridMissingKeyNamesTheKey)
{
    ResultGrid grid;
    Metrics m;
    grid.put("64", "NoLTP", m);

    // Unknown row: the message names the row.
    try {
        grid.at("256", "NoLTP");
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("row '256'"),
                  std::string::npos);
    }
    // Known row, unknown series: the message names both.
    try {
        grid.at("64", "LTP (NR)");
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("series 'LTP (NR)'"), std::string::npos);
        EXPECT_NE(what.find("row '64'"), std::string::npos);
    }
}

TEST(Experiment, GroupAverageRuns)
{
    SweepSpec spec;
    spec.name = "group";
    spec.lengths = RunLengths::quick();
    spec.addGroup("g", "base", SimConfig::baseline(),
                  {"dense_compute", "reduction"}, "ilp");
    Metrics avg = Runner(1).run(spec).grid.at("g", "base");
    EXPECT_EQ(avg.workload, "ilp");
    EXPECT_GT(avg.ipc, 1.0);
}

TEST(MlpClass, MarqueeKernelsClassifyAsDesigned)
{
    RunLengths lengths = RunLengths::quick();
    // Clearly sensitive: independent DRAM misses window-limited.
    MlpClassification shuffle = classifyMlp("bucket_shuffle", lengths);
    EXPECT_TRUE(shuffle.sensitive)
        << "speedup=" << shuffle.speedup
        << " outstanding=" << shuffle.outstandingRatio
        << " lat=" << shuffle.avgLoadLatency;
    MlpClassification milc = classifyMlp("indirect_stream_fp", lengths);
    EXPECT_TRUE(milc.sensitive);
    // Clearly insensitive: cache-resident compute.
    EXPECT_FALSE(classifyMlp("dense_compute", lengths).sensitive);
    EXPECT_FALSE(classifyMlp("reduction", lengths).sensitive);
    EXPECT_FALSE(classifyMlp("div_heavy", lengths).sensitive);
}

TEST(MlpClass, CriteriaFieldsPopulated)
{
    MlpClassification c =
        classifyMlp("indirect_stream_fp", RunLengths::quick());
    EXPECT_GT(c.speedup, 1.0);
    EXPECT_GT(c.outstandingRatio, 1.0);
    EXPECT_GT(c.avgLoadLatency, 12.0); // beyond the L2 latency
}

} // namespace
} // namespace ltp
