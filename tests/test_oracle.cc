/**
 * @file
 * Tests for the limit-study oracle classifier, anchored on the paper's
 * Figure 2 example: the oracle must reproduce the published
 * classification of the example loop exactly.  Also covers the
 * process-wide OracleMemo that shares one classification across sweep
 * cells: equality with the direct pre-pass, in-flight dedupe, key
 * coverage, LRU eviction, and bit-identical Metrics cold vs warm.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common/file_io.hh"
#include "common/json.hh"
#include "ltp/oracle.hh"
#include "sample/sampler.hh"
#include "sim/config.hh"
#include "sim/oracle_memo.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "trace/kernels.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"

namespace ltp {
namespace {

/** Classify paper_loop and return flags for iteration @p iter. */
struct IterClass
{
    bool urgent[11];
    bool nonReady[11];
    bool longLat[11];
};

IterClass
classifyIteration(const OracleClassification &oc, int iter)
{
    IterClass out{};
    for (int s = 0; s < 11; ++s) {
        SeqNum seq = SeqNum(iter) * 11 + s;
        out.urgent[s] = oc.urgent(seq);
        out.nonReady[s] = oc.nonReady(seq);
        out.longLat[s] = oc.longLatency(seq);
    }
    return out;
}

class OracleOnPaperLoop : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        WorkloadPtr w = makePaperLoop();
        MemConfig mem;
        oc_ = oracleClassify(*w, 1, 11 * 400, mem);
    }

    OracleClassification oc_;
};

// Slot letters: 0=A 1=B 2=C 3=D 4=E 5=F 6=G 7=H 8=I 9=J 10=K.

TEST_F(OracleOnPaperLoop, Figure2Urgency)
{
    // Use a mid-stream iteration (caches and prefetcher warmed, and
    // urgency's forward window fully populated).
    IterClass c = classifyIteration(oc_, 100);
    EXPECT_TRUE(c.urgent[0]) << "A addrA=baseA+j";
    EXPECT_TRUE(c.urgent[1]) << "B t1=load A[j]";
    EXPECT_TRUE(c.urgent[2]) << "C addrB=baseB+t1";
    EXPECT_TRUE(c.urgent[3]) << "D d=load B[t1]";
    EXPECT_TRUE(c.urgent[4]) << "E j=j-1";
    EXPECT_FALSE(c.urgent[5]) << "F d=d+5";
    EXPECT_FALSE(c.urgent[6]) << "G addrC=baseC+i";
    EXPECT_FALSE(c.urgent[7]) << "H store";
    EXPECT_FALSE(c.urgent[8]) << "I i=i+1";
    EXPECT_FALSE(c.urgent[9]) << "J t2=i-10000";
    EXPECT_FALSE(c.urgent[10]) << "K bltz";
}

TEST_F(OracleOnPaperLoop, Figure2Readiness)
{
    IterClass c = classifyIteration(oc_, 100);
    // A-E are Ready (A[] hits thanks to the prefetcher).
    for (int s = 0; s <= 4; ++s)
        EXPECT_FALSE(c.nonReady[s]) << "slot " << s;
    EXPECT_TRUE(c.nonReady[5]) << "F consumes the missing load";
    EXPECT_FALSE(c.nonReady[6]) << "G only reads i";
    EXPECT_TRUE(c.nonReady[7]) << "H stores the missing value";
    EXPECT_FALSE(c.nonReady[8]);
    EXPECT_FALSE(c.nonReady[9]);
    EXPECT_FALSE(c.nonReady[10]);
}

TEST_F(OracleOnPaperLoop, OnlyDIsLongLatency)
{
    IterClass c = classifyIteration(oc_, 100);
    for (int s = 0; s < 11; ++s) {
        if (s == 3)
            EXPECT_TRUE(c.longLat[s]) << "D misses to DRAM";
        else
            EXPECT_FALSE(c.longLat[s]) << "slot " << s;
    }
}

TEST_F(OracleOnPaperLoop, StableAcrossIterations)
{
    // Classification must be identical for all steady-state iterations.
    IterClass a = classifyIteration(oc_, 50);
    IterClass b = classifyIteration(oc_, 300);
    for (int s = 0; s < 11; ++s) {
        EXPECT_EQ(a.urgent[s], b.urgent[s]) << "slot " << s;
        EXPECT_EQ(a.nonReady[s], b.nonReady[s]) << "slot " << s;
    }
}

TEST_F(OracleOnPaperLoop, BaseOffsetShiftsLookups)
{
    SeqNum probe = 11 * 100 + 3; // D of iteration 100
    bool before = oc_.longLatency(probe);
    oc_.setBase(11); // one iteration offset
    EXPECT_EQ(oc_.longLatency(probe - 11), before);
    oc_.setBase(0);
}

TEST(Oracle, EmptyTraceValid)
{
    WorkloadPtr w = makePaperLoop();
    MemConfig mem;
    OracleClassification oc = oracleClassify(*w, 1, 0, mem);
    EXPECT_FALSE(oc.valid());
    EXPECT_FALSE(oc.urgent(0));
    EXPECT_FALSE(oc.nonReady(123456));
}

TEST(Oracle, OutOfRangeLookupsAreFalse)
{
    WorkloadPtr w = makePaperLoop();
    MemConfig mem;
    OracleClassification oc = oracleClassify(*w, 1, 110, mem);
    EXPECT_FALSE(oc.urgent(110));
    EXPECT_FALSE(oc.nonReady(1 << 20));
}

TEST(Oracle, UrgencyWindowBoundsPropagation)
{
    // With a tiny urgency window the cross-iteration chain (E feeds the
    // next iteration's A) must still be caught — the consumer is only
    // ~11 instructions ahead — but with window 1 nothing qualifies.
    WorkloadPtr w = makePaperLoop();
    MemConfig mem;
    OracleParams tight;
    tight.urgencyWindow = 1;
    OracleClassification oc = oracleClassify(*w, 1, 11 * 50, mem, tight);
    int urgents = 0;
    for (SeqNum s = 0; s < oc.size(); ++s)
        urgents += oc.urgent(s);
    // Only the long-latency loads themselves stay urgent.
    WorkloadPtr w2 = makePaperLoop();
    OracleClassification full = oracleClassify(*w2, 1, 11 * 50, mem);
    int full_urgents = 0;
    for (SeqNum s = 0; s < full.size(); ++s)
        full_urgents += full.urgent(s);
    EXPECT_LT(urgents, full_urgents);
}

TEST(Oracle, ReadinessWindowExpires)
{
    // A value produced by a long-latency load stops making consumers
    // Non-Ready once the readiness window has passed (the miss has
    // returned by then).
    WorkloadPtr w = makePaperLoop();
    OracleParams p;
    p.readinessWindow = 1; // expires immediately
    MemConfig mem;
    (void)mem;
    OracleClassification oc = oracleClassify(*w, 1, 11 * 50,
                                             MemConfig{}, p);
    int non_ready = 0;
    for (SeqNum s = 0; s < oc.size(); ++s)
        non_ready += oc.nonReady(s);
    EXPECT_EQ(non_ready, 0);
}

TEST(Oracle, GraphWalkChaseIsUrgentAndNonReady)
{
    // graph_walk slot 0 is a serial pointer chase: each instance is a
    // long-latency load whose address depends on the previous one —
    // the Urgent + Non-Ready class of the paper's astar discussion.
    WorkloadPtr w = makeGraphWalk();
    OracleClassification oc = oracleClassify(*w, 1, 12 * 300,
                                             MemConfig{});
    // Find the chase load PCs dynamically: slot 0 of each iteration.
    WorkloadPtr probe = makeGraphWalk();
    probe->reset(1);
    MicroOp first = probe->next();
    ASSERT_TRUE(first.isLoad());

    WorkloadPtr scan = makeGraphWalk();
    scan->reset(1);
    int urgent_chase = 0, nonready_chase = 0, total_chase = 0;
    for (SeqNum s = 0; s < oc.size(); ++s) {
        MicroOp op = scan->next();
        if (op.pc != first.pc || s < 100)
            continue;
        total_chase += 1;
        urgent_chase += oc.urgent(s);
        nonready_chase += oc.nonReady(s);
    }
    ASSERT_GT(total_chase, 50);
    EXPECT_GT(double(urgent_chase) / total_chase, 0.9);
    EXPECT_GT(double(nonready_chase) / total_chase, 0.5);
}

// ---------------------------------------------------------------------------
// Pre-pass storage and the shared memo
// ---------------------------------------------------------------------------

/** Every flag bit of @p oc, one byte per position (base applied). */
std::vector<std::uint8_t>
flagsOf(const OracleClassification &oc)
{
    std::vector<std::uint8_t> out(oc.size());
    for (SeqNum s = 0; s < oc.size(); ++s)
        out[s] = std::uint8_t(
            (oc.urgent(s) ? OracleClassification::kUrgent : 0) |
            (oc.nonReady(s) ? OracleClassification::kNonReady : 0) |
            (oc.longLatency(s) ? OracleClassification::kLongLat : 0));
    return out;
}

/** The pre-pass as first written: pass 2 reads the stored micro-ops
 *  themselves.  The reference the compact operand records must match
 *  byte for byte. */
std::vector<std::uint8_t>
referenceFlags(Workload &workload, std::uint64_t seed, std::uint64_t n,
               const MemConfig &mem_cfg, const OracleParams &params = {})
{
    std::vector<std::uint8_t> flags(n, 0);
    MemSystem mem(mem_cfg);
    workload.reset(seed);
    std::vector<MicroOp> trace(n);
    std::vector<SeqNum> nr_until(kTotalArchRegs, 0);
    for (SeqNum s = 0; s < n; ++s) {
        MicroOp op = workload.next();
        trace[s] = op;
        bool long_lat = false;
        if (op.isMem()) {
            HitLevel level =
                mem.warmAccess(op.pc, op.effAddr, op.isStore(), s * 2);
            long_lat = op.isLoad() && level == HitLevel::Dram;
        }
        if (isFixedLongLat(op.opc))
            long_lat = true;
        if (long_lat)
            flags[s] |= OracleClassification::kLongLat;
        SeqNum horizon = 0;
        for (const auto &src : op.srcs)
            if (src.valid())
                horizon = std::max(horizon, nr_until[src.flat()]);
        if (horizon > s)
            flags[s] |= OracleClassification::kNonReady;
        if (op.hasDst()) {
            SeqNum h = horizon > s ? horizon : 0;
            if (long_lat)
                h = std::max(h, s + params.readinessWindow);
            nr_until[op.dst.flat()] = h;
        }
    }
    std::vector<SeqNum> need_at(kTotalArchRegs, kSeqNone);
    for (SeqNum s = n; s-- > 0;) {
        const MicroOp &op = trace[s];
        bool urgent = (flags[s] & OracleClassification::kLongLat) != 0;
        if (op.hasDst()) {
            SeqNum consumer = need_at[op.dst.flat()];
            if (consumer != kSeqNone &&
                consumer - s <= SeqNum(params.urgencyWindow))
                urgent = true;
            need_at[op.dst.flat()] = kSeqNone;
        }
        if (urgent) {
            flags[s] |= OracleClassification::kUrgent;
            for (const auto &src : op.srcs)
                if (src.valid())
                    need_at[src.flat()] = s;
        }
    }
    return flags;
}

constexpr std::uint64_t kSpan = 6000;

TEST(OraclePrePass, CompactOperandsMatchFullTraceOnEverySuiteKernel)
{
    for (const SuiteEntry &e : kernelSuite()) {
        WorkloadPtr a = e.factory(), b = e.factory();
        EXPECT_EQ(flagsOf(oracleClassify(*a, 3, kSpan, MemConfig{})),
                  referenceFlags(*b, 3, kSpan, MemConfig{}))
            << e.name;
    }
}

TEST(OracleMemo, MatchesDirectPrePassOnEverySuiteKernel)
{
    OracleMemo memo;
    for (const SuiteEntry &e : kernelSuite()) {
        WorkloadPtr w = e.factory();
        std::vector<std::uint8_t> direct =
            flagsOf(oracleClassify(*w, 1, kSpan, MemConfig{}));
        EXPECT_EQ(flagsOf(memo.classify(e.name, 1, kSpan, MemConfig{})),
                  direct)
            << e.name << " (computed)";
        EXPECT_EQ(flagsOf(memo.classify(e.name, 1, kSpan, MemConfig{})),
                  direct)
            << e.name << " (memoised)";
    }
    EXPECT_EQ(memo.computes(), kernelSuite().size());
    EXPECT_EQ(memo.hits(), kernelSuite().size());
    EXPECT_EQ(memo.bytes(), kernelSuite().size() * kSpan);
}

TEST(OracleMemo, ConcurrentRequestersShareOneCompute)
{
    OracleMemo memo;
    std::vector<std::vector<std::uint8_t>> got(8);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < got.size(); ++i)
        threads.emplace_back([&memo, &got, i] {
            got[i] = flagsOf(
                memo.classify("graph_walk", 1, kSpan, MemConfig{}));
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(memo.computes(), 1u);
    EXPECT_EQ(memo.hits(), 7u);
    for (const auto &g : got)
        EXPECT_EQ(g, got.front());
}

TEST(OracleMemo, FailedComputeReachesWaitersAndIsNotCached)
{
    OracleMemo memo;
    auto fail = [&memo]() -> OracleClassification {
        // Hold the compute open until the second requester waits on it.
        while (memo.hits() < 1)
            std::this_thread::yield();
        throw std::runtime_error("pre-pass failed");
    };
    std::atomic<int> thrown{0};
    std::thread computer([&] {
        try {
            memo.memoize("k", fail);
        } catch (const std::runtime_error &) {
            thrown += 1;
        }
    });
    while (memo.computes() < 1)
        std::this_thread::yield();
    std::thread waiter([&] {
        try {
            memo.memoize("k", [] { return OracleClassification(); });
        } catch (const std::runtime_error &) {
            thrown += 1;
        }
    });
    computer.join();
    waiter.join();
    EXPECT_EQ(thrown.load(), 2);
    EXPECT_EQ(memo.computes(), 1u);

    // The entry was dropped: the next request computes afresh.
    WorkloadPtr w = makePaperLoop();
    OracleClassification ok = memo.memoize(
        "k", [&] { return oracleClassify(*w, 1, 110, MemConfig{}); });
    EXPECT_TRUE(ok.valid());
    EXPECT_EQ(memo.computes(), 2u);
    EXPECT_EQ(memo.bytes(), 110u);
}

/** Per-process scratch dir for recorded traces, removed on exit. */
class OracleMemoTrace : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("ltp_oracle_test_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    /** Record graph_walk with @p detail staging into @p file; its
     *  trace: name. */
    std::string
    record(const std::string &file, std::uint64_t detail)
    {
        TraceInfo info;
        info.kernel = "graph_walk";
        info.funcWarm = 2000;
        info.pipeWarm = 400;
        info.detail = detail;
        std::string path = (dir_ / file).string();
        writeFileAtomic(path, recordTrace(info));
        return "trace:" + path;
    }

    std::filesystem::path dir_;
};

TEST_F(OracleMemoTrace, EveryKeyTermSeparatesEntries)
{
    OracleMemo memo;
    MemConfig mem;
    memo.classify("graph_walk", 1, kSpan, mem);
    memo.classify("graph_walk", 2, kSpan, mem);
    memo.classify("graph_walk", 1, kSpan + 1, mem);
    MemConfig l3 = mem;
    l3.l3.sizeKB *= 2;
    memo.classify("graph_walk", 1, kSpan, l3);
    MemConfig ll = mem;
    ll.llThreshold += 1;
    memo.classify("graph_walk", 1, kSpan, ll);
    OracleParams tight;
    tight.urgencyWindow = 64;
    memo.classify("graph_walk", 1, kSpan, mem, tight);
    EXPECT_EQ(memo.computes(), 6u);
    EXPECT_EQ(memo.hits(), 0u);

    // Traces key by content, not by path.
    std::string a = record("a.lttr", 1000);
    std::string b = record("b.lttr", 1001); // one more record
    std::filesystem::copy_file(dir_ / "a.lttr", dir_ / "copy.lttr");
    memo.classify(a, 1, kSpan, mem);
    memo.classify(b, 1, kSpan, mem);
    EXPECT_EQ(memo.computes(), 8u);
    memo.classify("trace:" + (dir_ / "copy.lttr").string(), 1, kSpan,
                  mem);
    memo.classify("graph_walk", 1, kSpan, mem);
    EXPECT_EQ(memo.computes(), 8u);
    EXPECT_EQ(memo.hits(), 2u);
}

TEST(OracleMemo, KeyCoversEveryRegisteredMemField)
{
    JsonValue mem = parseJson(memConfigJson(MemConfig{}));
    int fields = 0;
    for (const std::string &path : configPaths()) {
        if (path.rfind("mem.", 0) != 0)
            continue;
        const JsonValue *v = &mem;
        std::size_t pos = 4;
        while (v && pos <= path.size()) {
            std::size_t dot = path.find('.', pos);
            if (dot == std::string::npos)
                dot = path.size();
            auto it = v->object.find(path.substr(pos, dot - pos));
            v = it == v->object.end() ? nullptr : &it->second;
            pos = dot + 1;
        }
        EXPECT_TRUE(v && !v->isObject()) << path;
        fields += 1;
    }
    EXPECT_GT(fields, 20);
}

TEST(OracleMemo, EvictsLeastRecentlyUsedAndHandlesOutliveEviction)
{
    constexpr std::uint64_t n = 3000;
    OracleMemo memo(2 * n + n / 2); // room for two entries
    auto direct = [](std::uint64_t seed) {
        WorkloadPtr w = makeGraphWalk();
        return oracleClassify(*w, seed, n, MemConfig{});
    };
    auto get = [&](std::uint64_t seed) {
        return memo.memoize("seed" + std::to_string(seed),
                            [&] { return direct(seed); });
    };
    get(1);
    OracleClassification held = get(2);
    get(1); // 1 is now the most recent; 2 is next out
    get(3);
    EXPECT_EQ(memo.computes(), 3u);
    EXPECT_EQ(memo.bytes(), 2 * n);

    get(1);
    get(3);
    EXPECT_EQ(memo.computes(), 3u) << "1 and 3 stayed resident";
    EXPECT_EQ(flagsOf(held), flagsOf(direct(2)))
        << "an evicted entry stays readable through its handle";
    get(2);
    EXPECT_EQ(memo.computes(), 4u) << "2 was evicted";
    EXPECT_LE(memo.bytes(), 2 * n + n / 2);
}

TEST(OracleMemo, HandlesRebaseIndependently)
{
    OracleMemo memo;
    OracleClassification a = memo.classify("paper_loop", 1, 11 * 200,
                                           MemConfig{});
    OracleClassification b = memo.classify("paper_loop", 1, 11 * 200,
                                           MemConfig{});
    OracleClassification c = a;
    WorkloadPtr w = makePaperLoop();
    std::vector<std::uint8_t> direct =
        flagsOf(oracleClassify(*w, 1, 11 * 200, MemConfig{}));
    a.setBase(11);
    b.setBase(0);
    c.setBase(25);
    for (SeqNum s = 0; s + 25 < direct.size(); ++s) {
        ASSERT_EQ(a.longLatency(s), (direct[s + 11] & 4) != 0) << s;
        ASSERT_EQ(b.longLatency(s), (direct[s] & 4) != 0) << s;
        ASSERT_EQ(c.urgent(s), (direct[s + 25] & 1) != 0) << s;
        ASSERT_EQ(b.nonReady(s), (direct[s] & 2) != 0) << s;
    }
}

TEST(OracleMemo, SimulatorMetricsIdenticalColdAndWarm)
{
    SimConfig cfg = SimConfig::limitStudy(LtpMode::NRNU).withIq(32);
    RunLengths l{2000, 400, 1000};
    OracleMemo &memo = OracleMemo::global();
    memo.clear();
    std::uint64_t before = memo.computes();
    auto run = [&] {
        return metricsToJson(Simulator::runOnce(cfg, "graph_walk", l));
    };
    std::string cold = run();
    EXPECT_EQ(memo.computes(), before + 1);
    std::string warm = run();
    EXPECT_EQ(memo.computes(), before + 1) << "warm run recomputed";
    EXPECT_EQ(cold, warm);
}

TEST(OracleMemo, SampledMetricsIdenticalColdAndWarm)
{
    SimConfig cfg = SimConfig::limitStudy(LtpMode::NRNU).withIq(32);
    SamplePlan plan{3000, 500, 1000, 3};
    auto run = [&] {
        Metrics m = Sampler::runOnce(cfg, "graph_walk", plan);
        m.sampling.ffKips = 0.0; // host time, not a result
        return metricsToJson(m);
    };
    OracleMemo &memo = OracleMemo::global();
    memo.clear();
    std::uint64_t before = memo.computes();
    std::string cold = run();
    EXPECT_EQ(memo.computes(), before + 1);
    std::string warm = run();
    EXPECT_EQ(memo.computes(), before + 1) << "warm run recomputed";
    EXPECT_EQ(cold, warm);
}

} // namespace
} // namespace ltp
