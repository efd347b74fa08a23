/**
 * @file
 * End-to-end LTP behaviour: learned classification convergence on the
 * paper's example loop, parking and wakeup flows, performance
 * relations the paper reports, monitor gating on compute-bound code,
 * deadlock-freedom under pathological resource pressure, and the
 * Non-Ready ticket machinery.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "sim/mlp_class.hh"
#include "sim/simulator.hh"
#include "trace/kernels.hh"

namespace ltp {
namespace {

RunLengths
quick()
{
    return RunLengths::quick();
}

TEST(LtpIntegration, UitConvergesToFigure2OnPaperLoop)
{
    Simulator sim(SimConfig::ltpProposal(), "paper_loop", quick());
    sim.run();
    Uit &uit = sim.core().uit();

    // Recover the static PCs of one iteration.
    WorkloadPtr w = makePaperLoop();
    w->reset(1);
    std::vector<MicroOp> iter;
    for (int i = 0; i < 11; ++i)
        iter.push_back(w->next());

    // Figure 2: A,B,C,D,E urgent; F,G,H,I,J,K not.
    const bool expect_urgent[11] = {true, true, true, true, true,
                                    false, false, false, false, false,
                                    false};
    for (int s = 0; s < 11; ++s)
        EXPECT_EQ(uit.lookup(iter[s].pc), expect_urgent[s])
            << "slot " << s << ": " << iter[s].toString();
}

TEST(LtpIntegration, ParksMajorityOfNonUrgentWork)
{
    Metrics m = Simulator::runOnce(SimConfig::ltpProposal(),
                                   "indirect_stream_fp", quick());
    // 8 of 13 instructions per iteration are Non-Urgent.
    EXPECT_GT(m.parkedFrac, 0.4);
    EXPECT_LT(m.parkedFrac, 0.8);
    EXPECT_GT(m.ltpOcc, 10.0);
    EXPECT_GT(m.ltpEnabledFrac, 0.8);
}

TEST(LtpIntegration, RecoversSmallIqPerformance)
{
    // The paper's headline: IQ 32 + RF 96 + LTP ~= IQ 64 + RF 128
    // baseline on MLP-sensitive code, far better than the naive shrink.
    Metrics base = Simulator::runOnce(SimConfig::baseline(),
                                      "indirect_stream_fp", quick());
    Metrics small = Simulator::runOnce(
        SimConfig::baseline().withIq(32).withRegs(96),
        "indirect_stream_fp", quick());
    Metrics ltp = Simulator::runOnce(SimConfig::ltpProposal(),
                                     "indirect_stream_fp", quick());
    EXPECT_GT(ltp.ipc, small.ipc * 1.05); // clearly better than shrink
    EXPECT_GT(ltp.ipc, base.ipc * 0.90);  // close to the big baseline
}

TEST(LtpIntegration, MlpIncreasesWithLtp)
{
    // Figure 1b: LTP raises the number of outstanding requests at a
    // fixed small IQ.
    Metrics small = Simulator::runOnce(
        SimConfig::baseline().withIq(32).withRegs(96),
        "indirect_stream_fp", quick());
    Metrics ltp = Simulator::runOnce(SimConfig::ltpProposal(),
                                     "indirect_stream_fp", quick());
    EXPECT_GT(ltp.avgOutstanding, small.avgOutstanding * 1.1);
}

TEST(LtpIntegration, MonitorPowersOffOnComputeBoundCode)
{
    // Figure 7 bottom: compute-bound phases keep LTP power-gated, so
    // nothing is parked despite everything missing in the UIT.
    Metrics m = Simulator::runOnce(SimConfig::ltpProposal(),
                                   "dense_compute", quick());
    EXPECT_LT(m.ltpEnabledFrac, 0.1);
    EXPECT_LT(m.parkedFrac, 0.05);

    // And performance is unharmed relative to the same small core.
    Metrics small = Simulator::runOnce(
        SimConfig::baseline().withIq(32).withRegs(96), "dense_compute",
        quick());
    EXPECT_GT(m.ipc, small.ipc * 0.97);
}

TEST(LtpIntegration, MonitorDisabledParksEverythingOnComputeCode)
{
    // With the monitor forced off (always enabled), compute-bound code
    // parks nearly everything — the waste Section 5.2 warns about.
    Metrics m = Simulator::runOnce(
        SimConfig::ltpProposal().withMonitor(false), "dense_compute",
        quick());
    // Bounded by the 4 insert ports at IPC ~5, and with no long-latency
    // instructions in the ROB everything unparks immediately — pure
    // parking churn (the energy waste Section 5.2 gates away), far more
    // than the ~0 a working monitor leaves.
    EXPECT_GT(m.parkedFrac, 0.10);
    EXPECT_GT(m.ltpOcc, 1.0);
}

TEST(LtpIntegration, ForcedUnparkKeepsTinyLtpCoreLive)
{
    // Pathological configuration: tiny IQ, tiny register files, tiny
    // LTP.  The Section 5.4 machinery (reserved registers, forced
    // unpark, emergency IQ slot) must keep the core making progress.
    SimConfig cfg = SimConfig::ltpProposal();
    cfg.core.iqSize = 4;
    cfg.core.intRegs = 40;
    cfg.core.fpRegs = 40;
    cfg.core.ltp.entries = 8;
    cfg.core.ltp.reservedRegs = 4;
    RunLengths lengths = quick();
    lengths.detail = 5000;
    Metrics m = Simulator::runOnce(cfg, "indirect_stream_fp", lengths);
    EXPECT_GE(m.insts, 5000u); // no deadlock panic
    EXPECT_LT(m.insts, 5008u);
    EXPECT_GT(m.ipc, 0.0);
}

TEST(LtpIntegration, DeadlockStressAllKernels)
{
    // Sweep the stress configuration across the kernels with the most
    // varied dependence shapes; the watchdog panics on any deadlock.
    for (const char *kernel :
         {"paper_loop", "graph_walk", "hash_probe", "div_heavy"}) {
        SimConfig cfg = SimConfig::ltpProposal(LtpMode::NRNU);
        cfg.core.iqSize = 6;
        cfg.core.intRegs = 44;
        cfg.core.fpRegs = 44;
        cfg.core.ltp.entries = 12;
        cfg.core.ltp.numTickets = 4;
        RunLengths lengths = quick();
        lengths.detail = 3000;
        Metrics m = Simulator::runOnce(cfg, kernel, lengths);
        EXPECT_GE(m.insts, 3000u) << kernel; // no deadlock panic
        EXPECT_LT(m.insts, 3008u) << kernel;
    }
}

TEST(LtpIntegration, LateLqSqReserveKeepsCommitMoving)
{
    // Limit-study late LQ/SQ allocation against a small queue.  Only
    // the oldest parked load (store) may take a reserved entry; when
    // any unparking op could, younger ones held the reserve and the
    // parked ROB head never got an entry (watchdog panic).
    const RunLengths lengths = RunLengths::bench();
    for (auto [kernel, mode, path] :
         {std::tuple{"linked_list", LtpMode::NR, "core.lq"},
          std::tuple{"graph_walk", LtpMode::NRNU, "core.lq"},
          std::tuple{"bucket_shuffle", LtpMode::NR, "core.sq"}}) {
        SimConfig cfg = SimConfig::limitStudy(mode);
        applyOverride(cfg, path, "16");
        Metrics m = Simulator::runOnce(cfg, kernel, lengths);
        EXPECT_GE(m.insts, lengths.detail) << kernel; // no panic
        EXPECT_LT(m.insts, lengths.detail + 8) << kernel;
    }
}

TEST(LtpIntegration, NrModeParksDependentLoads)
{
    // graph_walk's fan-out loads are Urgent + Non-Ready: NU-only
    // parking cannot touch them, NR parking can (the paper's astar
    // observation).
    Metrics nu = Simulator::runOnce(
        SimConfig::ltpProposal(LtpMode::NU).withOracle(), "graph_walk",
        quick());
    Metrics nr = Simulator::runOnce(
        SimConfig::ltpProposal(LtpMode::NR).withOracle().withTickets(128),
        "graph_walk", quick());
    EXPECT_GT(nr.ltpLoadsOcc, nu.ltpLoadsOcc);
}

TEST(LtpIntegration, TicketsClearViaEarlyWakeup)
{
    SimConfig cfg = SimConfig::ltpProposal(LtpMode::NRNU);
    cfg.core.ltp.numTickets = 64;
    Simulator sim(cfg, "indirect_stream_fp", quick());
    Metrics m = sim.run();
    EXPECT_GT(sim.core().tickets().broadcasts.value(), 100u);
    EXPECT_GT(m.insts, 0u);
}

TEST(LtpIntegration, FewTicketsDegradeGracefully)
{
    // Figure 11: shrinking the ticket pool loses performance but never
    // correctness.
    SimConfig few = SimConfig::ltpProposal(LtpMode::NRNU).withTickets(4);
    SimConfig many =
        SimConfig::ltpProposal(LtpMode::NRNU).withTickets(128);
    Metrics m_few = Simulator::runOnce(few, "graph_walk", quick());
    Metrics m_many = Simulator::runOnce(many, "graph_walk", quick());
    EXPECT_NEAR(double(m_few.insts), double(m_many.insts), 8.0);
    EXPECT_GT(m_few.ipc, 0.0);
    // Allow noise, but a tiny pool must not be *better*.
    EXPECT_LE(m_few.ipc, m_many.ipc * 1.05);
}

TEST(LtpIntegration, OracleModeRunsLimitConfig)
{
    Metrics m = Simulator::runOnce(SimConfig::limitStudy(LtpMode::NRNU),
                                   "indirect_stream_fp", quick());
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_GT(m.parkedFrac, 0.3);
}

TEST(LtpIntegration, LimitStudyLtpBeatsNoLtpAtTinyIq)
{
    // Figure 6 row 1 at IQ 16: parking recovers most of the loss.
    RunLengths lengths = quick();
    Metrics no_ltp = Simulator::runOnce(
        SimConfig::limitStudy(LtpMode::Off).withIq(16),
        "indirect_stream_fp", lengths);
    Metrics ltp = Simulator::runOnce(
        SimConfig::limitStudy(LtpMode::NRNU).withIq(16),
        "indirect_stream_fp", lengths);
    EXPECT_GT(ltp.ipc, no_ltp.ipc * 1.15);
}

TEST(LtpIntegration, ParkedStoreOrdersDependentLoad)
{
    // Section 5.3: a load must not bypass an older parked store to the
    // same address.  hash-probe-like custom stream: store to X parked
    // (non-urgent), load from X follows.
    Metrics m = Simulator::runOnce(SimConfig::ltpProposal(),
                                   "cache_stream", quick());
    // cache_stream stores and reloads its buffer; correctness here is
    // "no panic / full commit", timing sanity below.
    EXPECT_GT(m.ipc, 0.5);
}

TEST(LtpIntegration, UnparkPortsBoundWakeups)
{
    SimConfig one_port = SimConfig::ltpProposal();
    one_port.core.ltp.insertPorts = 1;
    one_port.core.ltp.extractPorts = 1;
    Metrics m1 = Simulator::runOnce(one_port, "indirect_stream_fp",
                                    quick());
    Metrics m4 = Simulator::runOnce(SimConfig::ltpProposal(),
                                    "indirect_stream_fp", quick());
    // Fewer ports => no faster (Figure 10's port sweep direction).
    EXPECT_LE(m1.ipc, m4.ipc * 1.03);
}

TEST(LtpIntegration, LtpOffMatchesPlainCore)
{
    // LtpMode::Off must behave identically to a never-parking config.
    Metrics off = Simulator::runOnce(
        SimConfig::baseline().withIq(32).withRegs(96), "sparse_gather",
        quick());
    SimConfig off2 = SimConfig::ltpProposal();
    off2.core.ltp.mode = LtpMode::Off;
    Metrics off2m = Simulator::runOnce(off2, "sparse_gather", quick());
    EXPECT_EQ(off2m.parked, 0u);
    EXPECT_NEAR(off2m.ipc, off.ipc, off.ipc * 0.01);
}

} // namespace
} // namespace ltp
