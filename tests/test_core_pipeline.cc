/**
 * @file
 * Pipeline-level tests of the OOO core (no LTP): throughput sanity,
 * resource lifetimes, commit ordering, branch penalties, squash
 * correctness and register-free-list conservation.  Plus the
 * cycle-exact differential of the quiet-cycle skip: runUntilCommitted
 * against one tick() per cycle, across every suite kernel and the LTP,
 * limit-study, small-window, MSHR-bound, SMT and sampled settings.
 * And the sampled tick profile: attaching one changes nothing simulated.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "cpu/core.hh"
#include "sample/fast_forward.hh"
#include "sample/sampler.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "trace/kernels.hh"
#include "trace/suite.hh"

namespace ltp {
namespace {

/** Replays a fixed vector of micro-ops (looping). */
class VectorSource : public InstSource
{
  public:
    explicit VectorSource(std::vector<MicroOp> ops) : ops_(std::move(ops))
    {}

    MicroOp
    fetch(SeqNum seq) override
    {
        return ops_[seq % ops_.size()];
    }

  private:
    std::vector<MicroOp> ops_;
};

/** Wraps a suite kernel as an InstSource. */
class KernelSource : public InstSource
{
  public:
    KernelSource(const std::string &name, std::uint64_t seed)
        : w_(makeKernel(name))
    {
        w_->reset(seed);
    }

    MicroOp
    fetch(SeqNum seq) override
    {
        while (seq >= base_ + buf_.size())
            buf_.push_back(w_->next());
        return buf_[seq - base_];
    }

    void
    retire(SeqNum upto) override
    {
        while (base_ <= upto && !buf_.empty()) {
            buf_.pop_front();
            base_ += 1;
        }
    }

  private:
    WorkloadPtr w_;
    std::deque<MicroOp> buf_;
    SeqNum base_ = 0;
};

std::vector<MicroOp>
independentAlus(int n)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < n; ++i) {
        ops.push_back(OpBuilder(OpClass::IntAlu)
                          .pc(0x1000 + i * 4)
                          .dst(intReg(i % 16))
                          .build());
    }
    return ops;
}

TEST(CorePipeline, IndependentAlusReachIssueWidth)
{
    CoreConfig cfg;
    MemConfig mcfg;
    MemSystem mem(mcfg);
    VectorSource src(independentAlus(16));
    Core core(cfg, mem, src);
    core.runUntilCommitted(30000);
    double ipc = double(core.committedInsts()) / core.cycle();
    // Bounded by the 4 ALU units, not the 6-wide issue width.
    EXPECT_GT(ipc, 3.7);
    EXPECT_LE(ipc, 4.05);
}

TEST(CorePipeline, SerialChainOnePerCycle)
{
    // A dependent ALU chain cannot exceed IPC 1.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 8; ++i) {
        ops.push_back(OpBuilder(OpClass::IntAlu)
                          .pc(0x2000 + i * 4)
                          .dst(intReg(1))
                          .src(intReg(1))
                          .build());
    }
    CoreConfig cfg;
    MemConfig mcfg;
    MemSystem mem(mcfg);
    VectorSource src(ops);
    Core core(cfg, mem, src);
    core.runUntilCommitted(5000);
    double ipc = double(core.committedInsts()) / core.cycle();
    EXPECT_GT(ipc, 0.9);
    EXPECT_LE(ipc, 1.02);
}

TEST(CorePipeline, CommitIsProgramOrder)
{
    // Instrumented indirectly: committed count only moves forward and
    // the core's source-retire callback sees strictly increasing
    // prefix boundaries.  retire(upto) covers every seq <= upto, and
    // the core batches one call per commit group, so consecutive
    // boundaries may step by up to the commit width — never backwards,
    // never by more than a cycle can retire.
    class CheckSource : public VectorSource
    {
      public:
        CheckSource(std::vector<MicroOp> ops, int commit_width)
            : VectorSource(std::move(ops)), width_(commit_width)
        {
        }
        void
        retire(SeqNum upto) override
        {
            if (last_ == kSeqNone) {
                EXPECT_LT(upto, SeqNum(width_));
            } else {
                EXPECT_GT(upto, last_);
                EXPECT_LE(upto, last_ + SeqNum(width_));
            }
            last_ = upto;
        }
        int width_;
        SeqNum last_ = kSeqNone;
    };
    CoreConfig cfg;
    MemConfig mcfg;
    MemSystem mem(mcfg);
    CheckSource src(independentAlus(32), cfg.commitWidth);
    Core core(cfg, mem, src);
    core.runUntilCommitted(10000);
    EXPECT_GT(src.last_, 9000u);
}

TEST(CorePipeline, LoadLatencyVisible)
{
    // One dependent load per "iteration" from a DRAM-sized region:
    // IPC must reflect the memory latency, not just core width.
    std::vector<MicroOp> ops;
    Rng rng(3);
    for (int i = 0; i < 64; ++i) {
        ops.push_back(OpBuilder(OpClass::Load)
                          .pc(0x3000)
                          .dst(intReg(1))
                          .src(intReg(2))
                          .mem(0x10000000 + (rng.next() % (64 << 20)), 8)
                          .build());
        ops.push_back(OpBuilder(OpClass::IntAlu)
                          .pc(0x3004)
                          .dst(intReg(2))
                          .src(intReg(1))
                          .build());
    }
    CoreConfig cfg;
    MemConfig mcfg;
    MemSystem mem(mcfg);
    VectorSource src(ops);
    Core core(cfg, mem, src);
    core.runUntilCommitted(2000, 4000000);
    double ipc = double(core.committedInsts()) /
                 std::max<Cycle>(core.cycle(), 1);
    EXPECT_LT(ipc, 0.25); // serial pointer-chase-like chain
}

TEST(CorePipeline, BranchMispredictsCostCycles)
{
    // Random 50% branches vs always-taken: the random stream must run
    // significantly slower.
    // NOTE: the vector must be longer than the committed count — a
    // repeating "random" pattern would be *learned* by gshare's global
    // history (it did, in an earlier version of this test).
    auto make = [](bool random) {
        std::vector<MicroOp> ops;
        Rng rng(7);
        for (int i = 0; i < 64; ++i) {
            ops.push_back(OpBuilder(OpClass::IntAlu)
                              .pc(0x4000 + i * 16)
                              .dst(intReg(1))
                              .build());
            bool taken = random ? rng.chance(0.5) : true;
            ops.push_back(OpBuilder(OpClass::Branch)
                              .pc(0x4004 + i * 16)
                              .branch(taken, 0x4000 + ((i + 1) % 64) * 16)
                              .build());
        }
        return ops;
    };
    // Fresh random directions per fetch: subclass regenerating taken
    // bits so the stream is aperiodic.
    class AperiodicSource : public VectorSource
    {
      public:
        using VectorSource::VectorSource;
        MicroOp
        fetch(SeqNum seq) override
        {
            MicroOp op = VectorSource::fetch(seq);
            if (op.isBranch()) {
                // Deterministic per seq, uncorrelated across seqs.
                Rng r(seq * 0x9e3779b97f4a7c15ull + 1);
                op.taken = r.chance(0.5);
            }
            return op;
        }
    };
    CoreConfig cfg;
    MemConfig mcfg;
    MemSystem mem1(mcfg), mem2(mcfg);
    VectorSource pred(make(false));
    AperiodicSource rand_src(make(true));
    Core c1(cfg, mem1, pred), c2(cfg, mem2, rand_src);
    c1.runUntilCommitted(20000);
    c2.runUntilCommitted(20000);
    double ipc1 = double(c1.committedInsts()) / c1.cycle();
    double ipc2 = double(c2.committedInsts()) / c2.cycle();
    EXPECT_GT(ipc1, 1.5 * ipc2);
    EXPECT_GT(c2.branchPred().mispredicts.value(), 2000u);
}

TEST(CorePipeline, StoreToLoadForwarding)
{
    // store to X; load from X immediately: the load must forward from
    // the SQ rather than waiting for DRAM.
    std::vector<MicroOp> ops;
    ops.push_back(OpBuilder(OpClass::IntAlu)
                      .pc(0x5000)
                      .dst(intReg(1))
                      .build());
    ops.push_back(OpBuilder(OpClass::Store)
                      .pc(0x5004)
                      .src(intReg(1))
                      .mem(0x20000000, 8)
                      .build());
    ops.push_back(OpBuilder(OpClass::Load)
                      .pc(0x5008)
                      .dst(intReg(2))
                      .mem(0x20000000, 8)
                      .build());
    ops.push_back(OpBuilder(OpClass::IntAlu)
                      .pc(0x500c)
                      .dst(intReg(3))
                      .src(intReg(2))
                      .build());
    CoreConfig cfg;
    MemConfig mcfg;
    MemSystem mem(mcfg);
    VectorSource src(ops);
    Core core(cfg, mem, src);
    core.runUntilCommitted(8000);
    EXPECT_GT(core.lsq().forwards.value(), 1500u);
    double ipc = double(core.committedInsts()) / core.cycle();
    EXPECT_GT(ipc, 1.0); // forwarding keeps the loop fast
}

TEST(CorePipeline, LoadWaitsForUnexecutedStoreData)
{
    // The store's data depends on a long divide; the dependent load
    // must not complete before the store executes.
    std::vector<MicroOp> ops;
    ops.push_back(OpBuilder(OpClass::IntDiv)
                      .pc(0x6000)
                      .dst(intReg(1))
                      .src(intReg(1))
                      .build());
    ops.push_back(OpBuilder(OpClass::Store)
                      .pc(0x6004)
                      .src(intReg(1))
                      .mem(0x30000000, 8)
                      .build());
    ops.push_back(OpBuilder(OpClass::Load)
                      .pc(0x6008)
                      .dst(intReg(2))
                      .mem(0x30000000, 8)
                      .build());
    CoreConfig cfg;
    MemConfig mcfg;
    MemSystem mem(mcfg);
    VectorSource src(ops);
    Core core(cfg, mem, src);
    core.runUntilCommitted(3000);
    // Each iteration is gated by the 20-cycle divide.
    double cpi = double(core.cycle()) / core.committedInsts();
    EXPECT_GT(cpi, 5.0);
}

TEST(CorePipeline, DrainEmptiesWindowAndConservesRegisters)
{
    CoreConfig cfg;
    MemConfig mcfg;
    MemSystem mem(mcfg);
    KernelSource src("indirect_stream_fp", 1);
    Core core(cfg, mem, src);
    core.runUntilCommitted(5000);
    core.drain();
    EXPECT_TRUE(core.rob().empty());
    EXPECT_EQ(core.iq().size(), 0);
    EXPECT_EQ(core.ltpQueue().size(), 0);

    // Register conservation: every allocated register must be the
    // current mapping of some architectural register.
    for (RegClass cls : {RegClass::Int, RegClass::Fp}) {
        int mapped = 0;
        for (int i = 0; i < kArchRegsPerClass; ++i) {
            const RatEntry &e = core.ratEntry(RegId(cls, i));
            if (e.map.kind == PrevMapping::Kind::Phys)
                mapped += 1;
            EXPECT_NE(e.map.kind, PrevMapping::Kind::Ltp);
        }
        EXPECT_EQ(core.regs(cls).allocatedCount(), mapped)
            << (cls == RegClass::Int ? "int" : "fp");
    }
}

TEST(CorePipeline, SquashRestoresRenameState)
{
    CoreConfig cfg;
    MemConfig mcfg;
    MemSystem mem(mcfg);
    KernelSource src("indirect_stream_fp", 1);
    Core core(cfg, mem, src);
    core.runUntilCommitted(3000);

    // Squash everything in flight, then drain and check conservation.
    core.squashAfter(core.rob().head() ? core.rob().head()->seq
                                       : 0);
    EXPECT_GE(core.stats().squashes.value(), 1u);
    core.runUntilCommitted(6000);
    core.drain();
    for (RegClass cls : {RegClass::Int, RegClass::Fp}) {
        int mapped = 0;
        for (int i = 0; i < kArchRegsPerClass; ++i) {
            const RatEntry &e = core.ratEntry(RegId(cls, i));
            if (e.map.kind == PrevMapping::Kind::Phys)
                mapped += 1;
        }
        EXPECT_EQ(core.regs(cls).allocatedCount(), mapped);
    }
}

TEST(CorePipeline, SquashMidStreamIsDeterministicallyRefetched)
{
    // Squash must rewind the trace: the same instructions re-execute
    // and total committed count still reaches the target.
    CoreConfig cfg;
    MemConfig mcfg;
    MemSystem mem(mcfg);
    KernelSource src("dense_compute", 1);
    Core core(cfg, mem, src);
    core.runUntilCommitted(1000);
    SeqNum keep = core.rob().head() ? core.rob().head()->seq : 1000;
    core.squashAfter(keep);
    core.runUntilCommitted(5000);
    EXPECT_EQ(core.committedInsts(), 5000u);
}

TEST(CorePipeline, RobNeverExceedsCapacity)
{
    CoreConfig cfg;
    cfg.robSize = 32;
    MemConfig mcfg;
    MemSystem mem(mcfg);
    KernelSource src("bucket_shuffle", 1);
    Core core(cfg, mem, src);
    for (int i = 0; i < 20000; ++i) {
        core.tick();
        ASSERT_LE(core.rob().size(), 32);
    }
}

TEST(CorePipeline, SmallerIqNeverFaster)
{
    MemConfig mcfg;
    auto run = [&](int iq) {
        CoreConfig cfg;
        cfg.iqSize = iq;
        MemSystem mem(mcfg);
        KernelSource src("bucket_shuffle", 1);
        Core core(cfg, mem, src);
        core.runUntilCommitted(20000);
        return double(core.committedInsts()) / core.cycle();
    };
    double ipc16 = run(16), ipc64 = run(64);
    EXPECT_LE(ipc16, ipc64 * 1.02);
}


// ---------------------------------------------------------------------
// Quiet-cycle skip: runUntilCommitted must be cycle-exact against one
// tick() per cycle — same clock, every stall counter, same Metrics.

/** Every CoreStats field, by name (the size check catches additions). */
const std::pair<const char *, Counter CoreStats::*> kCoreStatsFields[] = {
    {"committed", &CoreStats::committed},
    {"fetched", &CoreStats::fetched},
    {"renamed", &CoreStats::renamed},
    {"parked", &CoreStats::parked},
    {"unparked", &CoreStats::unparked},
    {"forcedUnparks", &CoreStats::forcedUnparks},
    {"pressureUnparks", &CoreStats::pressureUnparks},
    {"boundaryUnparks", &CoreStats::boundaryUnparks},
    {"ticketUnparks", &CoreStats::ticketUnparks},
    {"iqIssued", &CoreStats::iqIssued},
    {"wbWrites", &CoreStats::wbWrites},
    {"rfReads", &CoreStats::rfReads},
    {"rfWrites", &CoreStats::rfWrites},
    {"loadsExecuted", &CoreStats::loadsExecuted},
    {"storesExecuted", &CoreStats::storesExecuted},
    {"squashes", &CoreStats::squashes},
    {"memViolations", &CoreStats::memViolations},
    {"classUrgent", &CoreStats::classUrgent},
    {"classNonReady", &CoreStats::classNonReady},
    {"parkSkippedOff", &CoreStats::parkSkippedOff},
    {"renameStallRob", &CoreStats::renameStallRob},
    {"renameStallRegs", &CoreStats::renameStallRegs},
    {"renameStallIq", &CoreStats::renameStallIq},
    {"renameStallLq", &CoreStats::renameStallLq},
    {"renameStallSq", &CoreStats::renameStallSq},
    {"renameStallLtp", &CoreStats::renameStallLtp},
    {"commitStallLoad", &CoreStats::commitStallLoad},
    {"commitStallOther", &CoreStats::commitStallOther},
};
static_assert(sizeof(CoreStats) ==
                  std::size(kCoreStatsFields) * sizeof(Counter),
              "a CoreStats field is missing from kCoreStatsFields");

/** Tick one cycle at a time until every thread has committed @p n
 *  (failing, instead of spinning, on a commit-progress deadlock). */
void
tickUntil(Core &core, std::uint64_t n)
{
    auto least = [&] {
        std::uint64_t l = core.committedInsts(0);
        for (int tid = 1; tid < core.numThreads(); ++tid)
            l = std::min(l, core.committedInsts(tid));
        return l;
    };
    std::uint64_t last = least();
    Cycle last_progress = core.cycle();
    while (last < n) {
        core.tick();
        if (least() != last) {
            last = least();
            last_progress = core.cycle();
        }
        if (core.cycle() - last_progress > 200000)
            FAIL() << "no commit progress for 200k cycles";
    }
}

using Driver = void (*)(Core &, std::uint64_t);

void
skipDriver(Core &core, std::uint64_t n)
{
    core.runUntilCommitted(n);
}

/** Everything the differential compares, as one diffable string:
 *  the clock, every core counter and the memory-side counters (a
 *  failed store drain still counts an L1D miss and an MSHR stall). */
std::string
fingerprint(Core &core, MemSystem &mem)
{
    std::string out;
    auto put = [&out](const std::string &name, std::uint64_t v) {
        out += name + "=" + std::to_string(v) + "\n";
    };
    put("cycle", core.cycle());
    for (int tid = 0; tid < core.numThreads(); ++tid) {
        std::string t = "t" + std::to_string(tid) + ".";
        for (const auto &[name, field] : kCoreStatsFields)
            put(t + name, (core.stats(tid).*field).value());
        put(t + "ltp.fullStalls", core.ltpQueue(tid).fullStalls.value());
        put(t + "ltp.pushes", core.ltpQueue(tid).pushes.value());
        put(t + "ltp.pops", core.ltpQueue(tid).pops.value());
        put(t + "uit.lookups", core.uit(tid).lookups.value());
        put(t + "llpred.predictions",
            core.llpred(tid).predictions.value());
        put(t + "tickets.broadcasts",
            core.tickets(tid).broadcasts.value());
        put(t + "lsq.forwards", core.lsq(tid).forwards.value());
    }
    put("iq.inserts", core.iq().inserts.value());
    for (RegClass cls : {RegClass::Int, RegClass::Fp}) {
        std::string r = cls == RegClass::Int ? "int." : "fp.";
        put(r + "allocations", core.regs(cls).allocations.value());
        put(r + "reserveAllocations",
            core.regs(cls).reserveAllocations.value());
    }
    const std::pair<const char *, Cache *> caches[] = {
        {"l1i", &mem.l1i()}, {"l1d", &mem.l1d()},
        {"l2", &mem.l2()},   {"l3", &mem.l3()}};
    for (const auto &[name, c] : caches) {
        std::string p = std::string(name) + ".";
        put(p + "demandHits", c->demandHits.value());
        put(p + "demandMisses", c->demandMisses.value());
        put(p + "mergedInflight", c->mergedInflight.value());
        put(p + "evictions", c->evictions.value());
    }
    put("mshr.allocations", mem.l1dMshrs().allocations.value());
    put("mshr.fullStalls", mem.l1dMshrs().fullStalls.value());
    put("dram.reads", mem.dram().reads.value());
    put("dram.writes", mem.dram().writes.value());
    put("prefetch.issued", mem.prefetcher().issued.value());
    return out;
}

/**
 * Pipeline warm, stats reset, then the detail region, each phase
 * driven by @p drive; returns the core fingerprint plus the detail
 * region's Metrics JSON.
 */
std::string
stagedRun(const SimConfig &cfg, const std::string &kernel, Driver drive)
{
    RunLengths lengths{3000, 500, 2500};
    Simulator sim(cfg, kernel, lengths);
    Core &core = sim.core();
    drive(core, lengths.pipeWarm);
    core.resetStats();
    sim.mem().resetStats(core.cycle());
    Cycle start = core.cycle();
    drive(core, lengths.detail);

    SimConfig resolved = cfg;
    std::vector<WorkloadPtr> names;
    std::vector<Workload *> workloads;
    std::vector<Cycle> cross_cycles;
    std::vector<std::uint64_t> cross_insts;
    for (const std::string &m : resolveWorkloadMembers(resolved, kernel)) {
        names.push_back(makeKernel(m));
        workloads.push_back(names.back().get());
        cross_cycles.push_back(core.cycle());
        cross_insts.push_back(core.committedInsts(int(workloads.size()) - 1));
    }
    Metrics m = extractMetrics(cfg, core, sim.mem(), workloads,
                               cross_cycles, cross_insts,
                               core.cycle() - start);
    return fingerprint(core, sim.mem()) + metricsToJson(m, 1);
}

void
expectSkipExact(const SimConfig &cfg, const std::string &kernel)
{
    EXPECT_EQ(stagedRun(cfg, kernel, skipDriver),
              stagedRun(cfg, kernel, tickUntil))
        << cfg.name << " / " << kernel;
}

std::vector<SimConfig>
differentialConfigs()
{
    std::vector<SimConfig> cfgs = {
        SimConfig::baseline(),
        SimConfig::ltpProposal(LtpMode::NRNU),
        SimConfig::limitStudy(LtpMode::Off),
        SimConfig::limitStudy(LtpMode::NR),
        SimConfig::limitStudy(LtpMode::NU),
        SimConfig::limitStudy(LtpMode::NRNU),
        SimConfig::baseline().withIq(16).withRegs(64).withName("iq16-rf64"),
    };
    SimConfig mshr = SimConfig::baseline().withName("mshr2");
    mshr.mem.l1dMshrs = 2; // load retries and failed store drains
    cfgs.push_back(mshr);
    // Late LQ/SQ allocation against a finite queue: an unpark can
    // take a register and hand it back when the LQ/SQ is full.
    cfgs.push_back(SimConfig::limitStudy(LtpMode::NRNU)
                       .withLq(32)
                       .withSq(16)
                       .withName("limit-NR+NU-lq32-sq16"));
    return cfgs;
}

TEST(QuietCycleSkip, CycleExactOnEverySuiteKernelAndConfig)
{
    for (const SimConfig &cfg : differentialConfigs())
        for (const SuiteEntry &k : kernelSuite())
            expectSkipExact(cfg, k.name);
}

TEST(QuietCycleSkip, CycleExactOnSmtPairs)
{
    for (FetchPolicy policy : {FetchPolicy::RoundRobin, FetchPolicy::ICount}) {
        for (SimConfig cfg : {SimConfig::baseline(),
                              SimConfig::ltpProposal(LtpMode::NRNU)}) {
            cfg.core.fetchPolicy = policy;
            expectSkipExact(cfg, "smt:graph_walk+dense_compute");
            expectSkipExact(cfg, "smt:linked_list+hash_probe");
        }
    }
}

TEST(QuietCycleSkip, SmtRunWithQuotaHookMatchesPerCycleRun)
{
    // The full SMT staging drives runUntilCommitted with a per-tick
    // quota hook.  Rebuild runDetailPhases from its public pieces,
    // ticking every cycle with the same quota gating and crossing
    // capture, and compare with the staged run.
    const std::string kernel = "smt:graph_walk+dense_compute";
    for (FetchPolicy policy : {FetchPolicy::RoundRobin, FetchPolicy::ICount}) {
        SimConfig cfg = SimConfig::ltpProposal(LtpMode::NRNU);
        cfg.core.fetchPolicy = policy;
        RunLengths lengths{3000, 500, 2500};
        Simulator skip(cfg, kernel, lengths);
        std::string want = metricsToJson(skip.run(), 1);

        Simulator ref(cfg, kernel, lengths);
        Core &core = ref.core();
        int n = core.numThreads();
        std::vector<Cycle> cross_cycles(std::size_t(n), 0);
        std::vector<std::uint64_t> cross_insts(std::size_t(n), 0);
        // Tick every cycle until each thread commits @p quota; a thread
        // that gets there stops fetching, and its crossing is recorded.
        auto phase = [&](std::uint64_t quota) {
            std::vector<bool> closed(std::size_t(n), false);
            auto onTick = [&] {
                for (int tid = 0; tid < n; ++tid) {
                    std::size_t t = std::size_t(tid);
                    if (closed[t] || core.committedInsts(tid) < quota)
                        continue;
                    closed[t] = true;
                    core.setFetchEnabled(tid, false);
                    cross_cycles[t] = core.cycle();
                    cross_insts[t] = core.committedInsts(tid);
                }
            };
            onTick();
            while (std::find(closed.begin(), closed.end(), false) !=
                   closed.end()) {
                core.tick();
                onTick();
            }
            for (int tid = 0; tid < n; ++tid)
                core.setFetchEnabled(tid, true);
        };
        phase(lengths.pipeWarm);
        core.resetStats();
        ref.mem().resetStats(core.cycle());
        Cycle detail_start = core.cycle();
        phase(lengths.detail);

        SimConfig resolved = cfg;
        std::vector<WorkloadPtr> members;
        std::vector<Workload *> workloads;
        for (const std::string &m : resolveWorkloadMembers(resolved, kernel)) {
            members.push_back(makeKernel(m));
            workloads.push_back(members.back().get());
        }
        Metrics got = extractMetrics(resolved, core, ref.mem(), workloads,
                                     cross_cycles, cross_insts,
                                     core.cycle() - detail_start);
        EXPECT_EQ(metricsToJson(got, 1), want) << fetchPolicyName(policy);
        EXPECT_EQ(fingerprint(skip.core(), skip.mem()),
                  fingerprint(core, ref.mem()));
    }
}

TEST(QuietCycleSkip, SampledCellMatchesPerCycleSamples)
{
    // Rebuild the Sampler's schedule from its public pieces — a
    // functional chain settled at each fixed sample start, every
    // sample on a fresh core over a copy of that hierarchy —
    // ticking every detailed cycle, and compare with the sampled run.
    SimConfig cfg = SimConfig::ltpProposal(LtpMode::NRNU);
    SamplePlan plan;
    plan.fastForward = 20000;
    plan.warmup = 1000;
    plan.detail = 2000;
    plan.samples = 3;
    const std::string kernel = "graph_walk";
    Metrics got = Sampler::runOnce(cfg, kernel, plan);

    MemSystem chain_mem(cfg.mem);
    FastForward ff(cfg, {kernel}, chain_mem);
    std::size_t max_window = std::size_t(cfg.core.robSize) +
                             std::size_t(cfg.core.fetchQueueCap) +
                             std::size_t(cfg.core.fetchWidth);
    std::vector<Metrics> runs;
    for (int i = 0; i < plan.samples; ++i) {
        ff.advanceTo(std::uint64_t(i + 1) * plan.fastForward +
                     std::uint64_t(i) * (plan.warmup + plan.detail));
        chain_mem.settle();
        MemSystem mem = chain_mem;
        WorkloadPtr stream = ff.stream(0).clone();
        TraceWindow window(*stream, max_window);
        Core core(cfg.core, mem, window);
        core.branchPred().restore(ff.branchPred(0).image());
        tickUntil(core, plan.warmup);
        core.resetStats();
        mem.resetStats(core.cycle());
        Cycle detail_start = core.cycle();
        tickUntil(core, plan.detail);
        runs.push_back(extractMetrics(
            cfg, core, mem, {stream.get()}, {core.cycle()},
            {core.committedInsts()}, core.cycle() - detail_start));
    }

    ASSERT_EQ(got.sampling.sampleIpcs.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(got.sampling.sampleIpcs[i], runs[i].ipc) << "sample " << i;
    Metrics want = averageMetrics(runs, runs.front().workload);
    want.sampling = got.sampling;
    EXPECT_EQ(metricsToJson(got, 1), metricsToJson(want, 1));
}

TEST(QuietCycleSkip, StopsExactlyAtMaxCycles)
{
    // A DRAM-bound chain idles for hundreds of cycles at a time; a
    // skip must still end the run on max_cycles itself.
    std::vector<MicroOp> ops;
    Rng rng(5);
    for (int i = 0; i < 64; ++i)
        ops.push_back(OpBuilder(OpClass::Load)
                          .pc(0x3000)
                          .dst(intReg(1))
                          .src(intReg(1))
                          .mem(0x10000000 + (rng.next() % (64 << 20)), 8)
                          .build());
    for (Cycle max_cycles : {Cycle(777), Cycle(5003)}) {
        CoreConfig cfg;
        MemConfig mcfg;
        MemSystem mem_a(mcfg), mem_b(mcfg);
        VectorSource src_a(ops), src_b(ops);
        Core skip(cfg, mem_a, src_a), ref(cfg, mem_b, src_b);
        skip.runUntilCommitted(1000000, max_cycles);
        while (ref.committedInsts() < 1000000 && ref.cycle() < max_cycles)
            ref.tick();
        EXPECT_EQ(skip.cycle(), max_cycles);
        EXPECT_EQ(fingerprint(skip, mem_a), fingerprint(ref, mem_b));
    }
}


TEST(QuietCycleSkip, PressureUnparkAfterAnIdleStall)
{
    // A must-park instruction meeting a full LTP on an otherwise idle
    // cycle raises rename pressure; the next cycle's pressure unpark
    // must not be skipped.  A one-wide front end with a two-entry
    // fetch queue makes that stall cycle idle: the divide's dependents
    // park (NR), the third one finds the two-entry LTP full.
    std::vector<MicroOp> ops = {
        OpBuilder(OpClass::IntDiv).pc(0x5000).dst(intReg(1)).src(intReg(9))
            .build(),
        OpBuilder(OpClass::IntAlu).pc(0x5004).dst(intReg(2)).src(intReg(1))
            .build(),
        OpBuilder(OpClass::IntAlu).pc(0x5008).dst(intReg(3)).src(intReg(1))
            .build(),
        OpBuilder(OpClass::IntAlu).pc(0x500c).dst(intReg(4)).src(intReg(2))
            .build(),
        OpBuilder(OpClass::IntAlu).pc(0x5010).dst(intReg(9)).src(intReg(9))
            .build(),
    };
    CoreConfig cfg;
    cfg.fetchWidth = 1;
    cfg.fetchQueueCap = 2;
    cfg.ltp.mode = LtpMode::NR;
    cfg.ltp.entries = 2;
    cfg.ltp.useMonitor = false;
    MemConfig mcfg;
    MemSystem mem_a(mcfg), mem_b(mcfg);
    VectorSource src_a(ops), src_b(ops);
    Core skip(cfg, mem_a, src_a), ref(cfg, mem_b, src_b);
    skip.runUntilCommitted(500);
    tickUntil(ref, 500);
    EXPECT_GT(ref.stats().pressureUnparks.value(), 0u);
    EXPECT_EQ(fingerprint(skip, mem_a), fingerprint(ref, mem_b));
}

TEST(TickProfile, SampledProfileLeavesTheRunBitIdentical)
{
    // Attaching a profile only reads the clock: the Metrics and every
    // counter must match an unprofiled run, on the skipping run loop.
    const std::pair<SimConfig, std::string> cells[] = {
        {SimConfig::baseline(), "graph_walk"},
        {SimConfig::ltpProposal(LtpMode::NRNU), "graph_walk"},
        {SimConfig::ltpProposal(LtpMode::NRNU),
         "smt:graph_walk+dense_compute"},
    };
    for (const auto &[cfg, kernel] : cells) {
        RunLengths lengths{3000, 500, 2500};
        Simulator plain(cfg, kernel, lengths);
        Simulator profiled(cfg, kernel, lengths);
        TickProfile profile;
        profiled.core().setProfiler(&profile);
        std::string want = metricsToJson(plain.run(), 1);
        auto start = std::chrono::steady_clock::now();
        std::string got = metricsToJson(profiled.run(), 1);
        auto wall_ns = std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        std::string what = cfg.name + " / " + kernel;
        EXPECT_EQ(got, want) << what;
        EXPECT_EQ(fingerprint(profiled.core(), profiled.mem()),
                  fingerprint(plain.core(), plain.mem()))
            << what;

        // Executed ticks only: the profiled core skipped quiet cycles.
        EXPECT_GT(profile.ticks, 0u) << what;
        EXPECT_LT(profile.ticks, profiled.core().cycle()) << what;
        EXPECT_EQ(profile.sampled, profile.ticks / TickProfile::kPeriod)
            << what;
        // Laps are clamped at 0 after the clock-cost subtraction, so no
        // stage wraps: each timed stage fits inside the run's wall.
        for (int s = 0; s < TickProfile::kNumStages; ++s)
            EXPECT_LE(profile.ns[std::size_t(s)], wall_ns)
                << what << " " << TickProfile::stageName(s);
    }
}

// ---------------------------------------------------------------------------
// Instruction pool sized to the live window
// ---------------------------------------------------------------------------

TEST(InstPool, SizedToTwiceTheLiveWindowAndCapped)
{
    // ROB 256 + fetch queue 64 + fetch width 8 = 328 live at most, so
    // every preset gets 1024 slots.
    for (LtpMode mode : {LtpMode::Off, LtpMode::NU, LtpMode::NR,
                         LtpMode::NRNU}) {
        EXPECT_EQ(instPoolSize(SimConfig::limitStudy(mode).core), 1024u);
        EXPECT_EQ(instPoolSize(SimConfig::ltpProposal(mode).core), 1024u);
    }
    EXPECT_EQ(instPoolSize(SimConfig::baseline().core), 1024u);
    EXPECT_EQ(traceWindowBound(SimConfig::baseline().core), 328u);

    CoreConfig small;
    small.robSize = 32;
    small.fetchQueueCap = 16;
    EXPECT_EQ(instPoolSize(small), 128u); // 2 x 56 -> 128

    CoreConfig inf_rob;
    inf_rob.robSize = kInfiniteSize;
    EXPECT_EQ(traceWindowBound(inf_rob), 0u);
    EXPECT_EQ(instPoolSize(inf_rob), kInstWindow);
    CoreConfig inf_fq;
    inf_fq.fetchQueueCap = kInfiniteSize;
    EXPECT_EQ(instPoolSize(inf_fq), kInstWindow);

    CoreConfig big;
    big.robSize = 4096; // 2 x 4168 would round to 16384
    EXPECT_EQ(instPoolSize(big), kInstWindow);
}

TEST(InstPool, RobOf4096RunsAtTheCappedPool)
{
    // A limit-study cell with a window near the cap: the pool's
    // slot-reuse asserts stay quiet.
    SimConfig cfg = SimConfig::limitStudy(LtpMode::NRNU).withRob(4096);
    Metrics m = Simulator::runOnce(cfg, "graph_walk",
                                   RunLengths{4000, 1000, 20000});
    EXPECT_GE(m.insts, 20000u);
    EXPECT_GT(m.robOcc, 256.0); // the window really grew past Table 1
}

TEST(InstPool, StoreHeaviestKernelRunsLongUnderAnInfiniteSq)
{
    // Committed stores stay in the pool until the SQ drains them, so
    // an infinite SQ is where the live window can outgrow ROB + front
    // end.  Run the suite's most store-heavy kernel long in detail.
    std::string heaviest;
    std::size_t most = 0;
    for (const std::string &name : allKernelNames()) {
        WorkloadPtr w = makeKernel(name);
        w->reset(1);
        std::size_t stores = 0;
        for (int i = 0; i < 20000; ++i)
            stores += w->next().isStore() ? 1 : 0;
        if (stores > most) {
            most = stores;
            heaviest = name;
        }
    }
    ASSERT_FALSE(heaviest.empty());
    SCOPED_TRACE(heaviest);
    for (LtpMode mode : {LtpMode::Off, LtpMode::NRNU}) {
        SimConfig cfg = SimConfig::limitStudy(mode);
        ASSERT_TRUE(isInfinite(cfg.core.sqSize));
        Metrics m = Simulator::runOnce(cfg, heaviest,
                                       RunLengths{5000, 1000, 60000});
        EXPECT_GE(m.insts, 60000u);
    }
}

} // namespace
} // namespace ltp
