/**
 * @file
 * Tests for the memory hierarchy: caches (LRU, write-back, in-flight
 * merge), MSHRs, stride prefetcher, DRAM timing, and the MemSystem
 * front door (levels, early wakeup, warm path).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/mem_system.hh"
#include "mem/mshr.hh"
#include "mem/prefetcher.hh"
#include "sample/fast_forward.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"

namespace ltp {
namespace {

TEST(Cache, HitAfterFill)
{
    Cache c("t", CacheConfig{4, 4, 3});
    Cycle ready;
    EXPECT_FALSE(c.lookup(0x1000, 10, &ready));
    c.fill(0x1000, 10, 10, false);
    EXPECT_TRUE(c.lookup(0x1000, 11, &ready));
    EXPECT_LE(ready, 11u);
    EXPECT_EQ(c.demandHits.value(), 1u);
    EXPECT_EQ(c.demandMisses.value(), 1u);
}

TEST(Cache, LruEviction)
{
    // 4kB, 4-way, 64B lines => 16 sets.  Fill 5 ways of one set; the
    // least-recently-used line must be the victim.
    Cache c("t", CacheConfig{4, 4, 3});
    const Addr set_stride = 16 * 64; // same set every stride
    Cycle ready;
    for (int i = 0; i < 4; ++i)
        c.fill(0x10000 + i * set_stride, 0, 0, false);
    // Touch line 0 so line 1 becomes LRU.
    EXPECT_TRUE(c.lookup(0x10000, 1, &ready));
    auto victim = c.fill(0x10000 + 4 * set_stride, 2, 2, false);
    EXPECT_TRUE(victim.valid);
    EXPECT_EQ(victim.addr, 0x10000u + set_stride);
    EXPECT_TRUE(c.lookup(0x10000, 3, &ready)); // line 0 retained
}

TEST(Cache, DirtyVictimReported)
{
    Cache c("t", CacheConfig{4, 4, 3});
    const Addr set_stride = 16 * 64;
    for (int i = 0; i < 4; ++i)
        c.fill(0x20000 + i * set_stride, 0, 0, false);
    c.setDirty(0x20000);
    // Evict everything.
    Cache::Victim dirty{};
    for (int i = 4; i < 8; ++i) {
        auto v = c.fill(0x20000 + i * set_stride, 1, 1, false);
        if (v.valid && v.dirty)
            dirty = v;
    }
    EXPECT_TRUE(dirty.valid);
    EXPECT_EQ(dirty.addr, 0x20000u);
    EXPECT_EQ(c.dirtyEvictions.value(), 1u);
}

TEST(Cache, InflightMerge)
{
    Cache c("t", CacheConfig{4, 4, 3});
    c.fill(0x3000, 5, 100, false); // fill arrives at cycle 100
    Cycle ready;
    EXPECT_TRUE(c.lookup(0x3000, 10, &ready));
    EXPECT_EQ(ready, 100u);
    EXPECT_EQ(c.mergedInflight.value(), 1u);
    EXPECT_TRUE(c.lookup(0x3000, 200, &ready));
    EXPECT_EQ(c.demandHits.value(), 1u);
}

TEST(Cache, PrefetchAccounting)
{
    Cache c("t", CacheConfig{4, 4, 3});
    c.fill(0x4000, 0, 0, true);
    EXPECT_EQ(c.prefetchFills.value(), 1u);
    Cycle ready;
    EXPECT_TRUE(c.lookup(0x4000, 1, &ready));
    EXPECT_EQ(c.usefulPrefetches.value(), 1u);
    // Second hit is no longer "prefetched".
    c.lookup(0x4000, 2, &ready);
    EXPECT_EQ(c.usefulPrefetches.value(), 1u);
}

TEST(Cache, InvalidateDropsLine)
{
    Cache c("t", CacheConfig{4, 4, 3});
    c.fill(0x5000, 0, 0, false);
    c.invalidate(0x5000);
    Cycle ready;
    EXPECT_FALSE(c.lookup(0x5000, 1, &ready));
}

TEST(Cache, BadGeometryIsFatal)
{
    EXPECT_EXIT(Cache("t", CacheConfig{3, 7, 1}),
                ::testing::ExitedWithCode(1), "non-power-of-2");
}

TEST(Mshr, CapacityAndExpiry)
{
    MshrFile m(2);
    EXPECT_TRUE(m.available(0));
    m.allocate(0x100, 0, 50);
    m.allocate(0x200, 0, 60);
    EXPECT_FALSE(m.available(10));
    EXPECT_EQ(m.fullStalls.value(), 1u);
    // First entry expires at 50.
    EXPECT_TRUE(m.available(50));
    EXPECT_EQ(m.occupancy(55), 1);
    EXPECT_EQ(m.occupancy(100), 0);
}

TEST(Mshr, InfiniteNeverFull)
{
    MshrFile m(kInfiniteSize);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_TRUE(m.available(0));
        m.allocate(i * 64, 0, 1000000);
    }
}

TEST(Prefetcher, DetectsPositiveStride)
{
    StridePrefetcher pf(4);
    std::vector<Addr> out;
    pf.observe(0x40, 0x1000, out);
    pf.observe(0x40, 0x1040, out);
    EXPECT_TRUE(out.empty()); // confidence not yet established
    pf.observe(0x40, 0x1080, out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], blockAlign(0x1080 + 0x40));
    EXPECT_EQ(out[3], blockAlign(0x1080 + 4 * 0x40));
}

TEST(Prefetcher, DetectsNegativeStride)
{
    // The paper-loop A[] array walks downwards.
    StridePrefetcher pf(4);
    std::vector<Addr> out;
    pf.observe(0x44, 0x2000, out);
    pf.observe(0x44, 0x2000 - 64, out);
    pf.observe(0x44, 0x2000 - 128, out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], blockAlign(Addr(0x2000 - 192)));
}

TEST(Prefetcher, RandomAddressesNoPrefetch)
{
    StridePrefetcher pf(4);
    Rng rng(1);
    std::vector<Addr> out;
    for (int i = 0; i < 100; ++i)
        pf.observe(0x48, rng.next() % (1 << 26), out);
    // Random strides: the occasional accidental repeat is possible but
    // sustained confidence is not.
    EXPECT_LT(out.size(), 20u);
}

TEST(Prefetcher, DegreeZeroDisabled)
{
    StridePrefetcher pf(0);
    std::vector<Addr> out;
    for (int i = 0; i < 10; ++i)
        pf.observe(0x4c, 0x1000 + i * 64, out);
    EXPECT_TRUE(out.empty());
}

TEST(Dram, RowHitFasterThanConflict)
{
    DramConfig cfg;
    cfg.channels = 1;
    cfg.banks = 1;
    Dram d(cfg);
    Cycle first = d.access(0x0, 0, false);
    // Same row, issued long after the bank freed.
    Cycle second_start = first + 1000;
    Cycle second = d.access(0x40, second_start, false);
    // Different row on the same bank.
    Cycle third_start = second + 1000;
    Cycle third = d.access(1 << 24, third_start, false);
    Cycle hit_lat = second - second_start;
    Cycle conflict_lat = third - third_start;
    EXPECT_LT(hit_lat, conflict_lat);
    EXPECT_EQ(d.rowHits.value(), 1u);
    EXPECT_EQ(d.rowConflicts.value(), 2u);
}

TEST(Dram, BankQueueingSerializes)
{
    DramConfig cfg;
    cfg.channels = 1;
    cfg.banks = 1;
    Dram d(cfg);
    Cycle c1 = d.access(0x0, 0, false);
    Cycle c2 = d.access(1 << 24, 0, false); // same bank, other row
    EXPECT_GT(c2, c1);
}

TEST(Dram, ChannelsProvideParallelism)
{
    DramConfig one;
    one.channels = 1;
    DramConfig two;
    two.channels = 2;
    Dram d1(one), d2(two);
    // Issue a burst of parallel requests; with more channels the last
    // completion must be no later.
    Cycle last1 = 0, last2 = 0;
    for (int i = 0; i < 32; ++i) {
        Addr a = Addr(i) * 64;
        last1 = std::max(last1, d1.access(a, 0, false));
        last2 = std::max(last2, d2.access(a, 0, false));
    }
    EXPECT_LT(last2, last1);
}

TEST(Dram, InflightTracking)
{
    Dram d(DramConfig{});
    Cycle done = d.access(0x0, 0, false);
    EXPECT_EQ(d.inflightReads(0), 1);
    EXPECT_EQ(d.inflightReads(done), 0);
    EXPECT_GT(d.meanInflightReads(done), 0.0);
}

TEST(Dram, WritesDoNotCountAsReads)
{
    Dram d(DramConfig{});
    d.access(0x0, 0, true);
    EXPECT_EQ(d.inflightReads(0), 0);
    EXPECT_EQ(d.writes.value(), 1u);
    EXPECT_EQ(d.reads.value(), 0u);
}

TEST(Dram, TypicalLatencyPlausible)
{
    Dram d(DramConfig{});
    // DDR3-1600 random access at 3.4GHz: roughly 120-220 CPU cycles.
    EXPECT_GT(d.typicalLatency(), 100u);
    EXPECT_LT(d.typicalLatency(), 300u);
}

// ---------------------------------------------------------------------

class MemSystemTest : public ::testing::Test
{
  protected:
    MemConfig cfg_;
};

TEST_F(MemSystemTest, LevelsAndLatencies)
{
    MemSystem mem(cfg_);
    // Cold access goes to DRAM.
    auto r1 = mem.access(0x40, 0x100000, false, 100);
    ASSERT_TRUE(r1.has_value());
    EXPECT_EQ(r1->level, HitLevel::Dram);
    EXPECT_GT(r1->dataReady, 100u + 36u);
    EXPECT_TRUE(mem.isLongLatency(*r1, 100));

    // Touch again once resident: L1 hit at the L1 latency.
    Cycle later = r1->dataReady + 10;
    auto r2 = mem.access(0x40, 0x100000, false, later);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->level, HitLevel::L1);
    EXPECT_EQ(r2->dataReady, later + cfg_.l1d.hitLatency);
    EXPECT_FALSE(mem.isLongLatency(*r2, later));
}

TEST_F(MemSystemTest, InflightMergeSharesFill)
{
    MemSystem mem(cfg_);
    auto r1 = mem.access(0x40, 0x200000, false, 0);
    ASSERT_TRUE(r1.has_value());
    // Second access to the same line while the fill is in flight.
    auto r2 = mem.access(0x44, 0x200008, false, 5);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->level, HitLevel::Inflight);
    EXPECT_EQ(r2->dataReady, r1->dataReady);
}

TEST_F(MemSystemTest, EarlyWakeupLeadsData)
{
    MemSystem mem(cfg_);
    auto r = mem.access(0x40, 0x300000, false, 0);
    ASSERT_TRUE(r.has_value());
    EXPECT_LT(r->earlyWakeup, r->dataReady);
    EXPECT_EQ(r->dataReady - r->earlyWakeup, cfg_.earlyLead);
}

TEST_F(MemSystemTest, MshrLimitForcesRetry)
{
    cfg_.l1dMshrs = 2;
    MemSystem mem(cfg_);
    EXPECT_TRUE(mem.access(0x40, 0x40ull << 12, false, 0).has_value());
    EXPECT_TRUE(mem.access(0x40, 0x41ull << 12, false, 0).has_value());
    auto r3 = mem.access(0x40, 0x42ull << 12, false, 0);
    EXPECT_FALSE(r3.has_value()); // retry
}

TEST_F(MemSystemTest, L2HitAfterL1Eviction)
{
    MemSystem mem(cfg_);
    // Fill a line, then evict it from L1 by filling its whole L1 set
    // (64 sets x 8 ways): same-set stride is 64 sets * 64B = 4kB.
    auto first = mem.access(0x40, 0x800000, false, 0);
    Cycle t = first->dataReady + 1;
    for (int i = 1; i <= 8; ++i) {
        auto r = mem.access(0x40, 0x800000 + i * 4096, false, t);
        t = r ? r->dataReady + 1 : t + 1;
    }
    auto back = mem.access(0x40, 0x800000, false, t);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->level, HitLevel::L2);
    EXPECT_EQ(back->dataReady, t + cfg_.l2.hitLatency);
}

TEST_F(MemSystemTest, PrefetcherCoversSequentialStream)
{
    MemSystem mem(cfg_);
    Cycle t = 0;
    std::uint64_t dram_before = 0;
    // Stream 256 sequential lines from one PC.
    for (int i = 0; i < 256; ++i) {
        auto r = mem.access(0x80, 0xc00000 + Addr(i) * 64, false, t);
        ASSERT_TRUE(r.has_value());
        t = std::max(t + 1, r->dataReady);
        if (i == 32)
            dram_before = mem.dram().reads.value();
    }
    std::uint64_t dram_after = mem.dram().reads.value();
    // Later in the stream, demand DRAM reads should be mostly covered
    // by prefetches (reads still occur, but as prefetch fills).
    EXPECT_GT(mem.prefetcher().issued.value(), 100u);
    EXPECT_GT(mem.l2().prefetchFills.value(), 50u);
    (void)dram_before;
    (void)dram_after;
}

TEST_F(MemSystemTest, WarmAccessInstallsWithoutTiming)
{
    MemSystem mem(cfg_);
    EXPECT_EQ(mem.warmAccess(0x40, 0xd00000, false, 0), HitLevel::Dram);
    EXPECT_EQ(mem.warmAccess(0x40, 0xd00000, false, 0), HitLevel::L1);
    EXPECT_EQ(mem.dram().reads.value(), 0u); // no timed traffic
    // A detailed access afterwards hits with sane (non-future) timing.
    auto r = mem.access(0x40, 0xd00000, false, 3);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->level, HitLevel::L1);
    EXPECT_EQ(r->dataReady, 3 + cfg_.l1d.hitLatency);
}

/** Tag-array state (timing aside) of every level, plus the prefetcher
 *  table, as one comparable string. */
std::string
tagImage(MemSystem &mem)
{
    mem.settle();
    std::string out;
    for (Cache *c : {&mem.l1d(), &mem.l2(), &mem.l3()}) {
        out += c->name() + ":" + std::to_string(c->useStamp()) + ";";
        for (const Cache::Line &l : c->lines())
            out += strprintf("%d%d%d/%llx/%llu,", l.valid, l.dirty,
                             l.prefetched, (unsigned long long)l.tag,
                             (unsigned long long)l.lastUse);
    }
    for (const StridePrefetcher::Entry &e : mem.prefetcher().table())
        out += strprintf("%d/%llx/%llx/%lld/%d,", e.valid,
                         (unsigned long long)e.pc,
                         (unsigned long long)e.lastAddr,
                         (long long)e.stride, e.confidence);
    return out;
}

TEST_F(MemSystemTest, AsTimedWarmLeavesTheTimedTagArrays)
{
    // Streaming loads (prefetched), streaming stores larger than L3
    // (dirty victims at every level) and random misses: the functional
    // path must leave exactly the tag arrays — dirty bits and
    // prefetched L3 lines included — that timed accesses leave.
    MemSystem timed(cfg_), warmed(cfg_);
    Rng rng(7);
    Cycle now = 0;
    for (std::uint64_t i = 0; i < 60000; ++i) {
        Addr pc, addr;
        bool store = false;
        switch (rng.below(3)) {
          case 0: pc = 0x100; addr = 0x1000000 + 8 * i; break;
          case 1: pc = 0x200; addr = 0x4000000 + 8 * i; store = true; break;
          default: pc = 0x300; addr = 0x8000000 + 64 * rng.below(1 << 20);
        }
        auto r = timed.access(pc, addr, store, now);
        ASSERT_TRUE(r.has_value());
        now = std::max(now + 1, r->dataReady);
        warmed.warmAccess(pc, addr, store, 0);
    }
    EXPECT_GT(timed.l3().dirtyEvictions.value(), 0u);
    EXPECT_EQ(tagImage(warmed), tagImage(timed));
}

TEST(OneWarmForm, FullRunWarmEqualsTheFastForwardWarm)
{
    // A full run's functional warm and a sampling chain's fast-forward
    // are one warm: at the same stream position they leave the same
    // hierarchy, for every suite kernel and for a shared SMT mix.
    RunLengths lengths = RunLengths::quick();
    std::vector<std::string> workloads;
    for (const SuiteEntry &e : kernelSuite())
        workloads.push_back(e.name);
    workloads.push_back("smt:graph_walk+dense_compute");
    for (const std::string &workload : workloads) {
        SimConfig cfg = SimConfig::baseline();
        Simulator sim(cfg, workload, lengths);
        std::vector<std::string> members =
            resolveWorkloadMembers(cfg, workload);
        MemSystem mem(cfg.mem);
        FastForward ff(cfg, members, mem);
        ff.advanceTo(lengths.funcWarm);
        EXPECT_EQ(tagImage(sim.mem()), tagImage(mem)) << workload;
    }
}

TEST_F(MemSystemTest, FetchPathHitsAfterWarm)
{
    MemSystem mem(cfg_);
    auto cold = mem.fetchAccess(0x400000, 0);
    EXPECT_GT(cold.dataReady, 0u + cfg_.l1i.hitLatency);
    auto warm = mem.fetchAccess(0x400000, cold.dataReady + 1);
    EXPECT_EQ(warm.level, HitLevel::L1);
}

TEST_F(MemSystemTest, StoresMarkDirtyAndWriteBack)
{
    MemSystem mem(cfg_);
    auto w = mem.access(0x40, 0xe00000, true, 0);
    ASSERT_TRUE(w.has_value());
    // Evict through the hierarchy by filling the L1 set, then check a
    // dirty eviction happened somewhere.
    Cycle t = w->dataReady + 1;
    for (int i = 1; i <= 9; ++i) {
        auto r = mem.access(0x40, 0xe00000 + i * 4096, false, t);
        t = r ? r->dataReady + 1 : t + 1;
    }
    EXPECT_GE(mem.l1d().dirtyEvictions.value(), 1u);
}

TEST_F(MemSystemTest, AvgLoadLatencyTracksLevels)
{
    MemSystem mem(cfg_);
    auto r = mem.access(0x40, 0xf00000, false, 0);
    Cycle t = r->dataReady + 1;
    mem.access(0x40, 0xf00000, false, t);
    // One DRAM access and one L1 hit: the mean sits between them.
    EXPECT_GT(mem.avgLoadLatency(), double(cfg_.l1d.hitLatency));
    EXPECT_LT(mem.avgLoadLatency(), double(r->dataReady));
}

} // namespace
} // namespace ltp
