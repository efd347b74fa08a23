/**
 * @file
 * Unit tests for the common substrate: stats, RNG, tables, CLI, types,
 * binary I/O, ring buffer, timing wheel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/binio.hh"
#include "common/cli.hh"
#include "common/ring.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/timing_wheel.hh"
#include "common/types.hh"

namespace ltp {
namespace {

TEST(BinIo, LittleEndianRoundTrip)
{
    std::string b;
    putU8(b, 0xab);
    putU16le(b, 0x1234);
    putU32le(b, 0xdeadbeefu);
    putU64le(b, 0x0123456789abcdefull);
    ASSERT_EQ(b.size(), 1u + 2 + 4 + 8);
    // Explicit little-endian byte order on the wire.
    EXPECT_EQ(static_cast<unsigned char>(b[1]), 0x34);
    EXPECT_EQ(static_cast<unsigned char>(b[2]), 0x12);
    ByteReader r(b);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinIo, ReaderBoundsChecked)
{
    std::string b = "abc";
    EXPECT_THROW((void)ByteReader(b).u32(), std::runtime_error);
    ByteReader r(b);
    r.skip(3);
    EXPECT_THROW((void)r.u8(), std::runtime_error);
    // A construction offset past the end must not wrap the check.
    ByteReader past(b, b.size() + 1);
    EXPECT_EQ(past.remaining(), 0u);
    EXPECT_THROW((void)past.u8(), std::runtime_error);
    EXPECT_THROW((void)ByteReader(b, 2).raw(2), std::runtime_error);
}

TEST(BinIo, Crc32KnownVectors)
{
    // The classic check value for "123456789" (IEEE 802.3).
    EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(crc32(""), 0x00000000u);
    // Incremental == one-shot.
    Crc32 inc;
    inc.update("1234");
    inc.update("56789");
    EXPECT_EQ(inc.value(), 0xcbf43926u);
}

TEST(Types, BlockAlign)
{
    EXPECT_EQ(blockAlign(0), 0u);
    EXPECT_EQ(blockAlign(63), 0u);
    EXPECT_EQ(blockAlign(64), 64u);
    EXPECT_EQ(blockAlign(130), 128u);
}

TEST(Types, InfiniteSentinel)
{
    EXPECT_TRUE(isInfinite(kInfiniteSize));
    EXPECT_TRUE(isInfinite(kInfiniteSize + 5));
    EXPECT_FALSE(isInfinite(256));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceIsRoughlyCalibrated)
{
    Rng r(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.02);
}

TEST(Counter, Accumulates)
{
    Counter c;
    c++;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, MeanAndReset)
{
    Average a;
    a.sample(1.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_EQ(a.count(), 2u);
    a.reset();
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(OccupancyStat, ExactIntegration)
{
    OccupancyStat occ;
    occ.set(2, 0);   // level 2 over [0,10)
    occ.set(6, 10);  // level 6 over [10,20)
    EXPECT_DOUBLE_EQ(occ.mean(20), (2 * 10 + 6 * 10) / 20.0);
}

TEST(OccupancyStat, AddSub)
{
    OccupancyStat occ;
    occ.add(3, 0);
    occ.sub(1, 5);
    EXPECT_EQ(occ.level(), 2);
    EXPECT_DOUBLE_EQ(occ.mean(10), (3 * 5 + 2 * 5) / 10.0);
}

TEST(OccupancyStat, ResetKeepsLevel)
{
    OccupancyStat occ;
    occ.set(4, 0);
    occ.reset(100);
    EXPECT_EQ(occ.level(), 4);
    EXPECT_DOUBLE_EQ(occ.mean(110), 4.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4, 10); // buckets [0,10) [10,20) [20,30) [30,40) + ovf
    h.sample(5);
    h.sample(15);
    h.sample(39);
    h.sample(1000);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(4), 1u); // overflow
    EXPECT_EQ(h.total(), 4u);
}

TEST(SafeDiv, ZeroDenominator)
{
    EXPECT_DOUBLE_EQ(safeDiv(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(safeDiv(6.0, 2.0), 3.0);
}

TEST(PctDelta, Basics)
{
    EXPECT_NEAR(pctDelta(110, 100), 10.0, 1e-9);
    EXPECT_NEAR(pctDelta(90, 100), -10.0, 1e-9);
}

TEST(Table, RendersAllRows)
{
    Table t({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::string s = t.toString();
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_NE(s.find("bb"), std::string::npos);
    std::string csv = t.toCsv();
    EXPECT_NE(csv.find("a,bb"), std::string::npos);
    EXPECT_NE(csv.find("333,4"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(-12.345, 1), "-12.3%");
    EXPECT_EQ(Table::pct(4.2, 1), "+4.2%");
}

TEST(Cli, ParsesForms)
{
    const char *argv[] = {"prog", "--alpha=3", "--beta", "7", "--gamma"};
    Cli cli(5, const_cast<char **>(argv), {"alpha", "beta", "gamma"});
    EXPECT_EQ(cli.integer("alpha", 0), 3);
    EXPECT_EQ(cli.integer("beta", 0), 7);
    EXPECT_TRUE(cli.flag("gamma"));
    EXPECT_EQ(cli.integer("missing", 9), 9);
    EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, RepeatedFlagsCollectInOrder)
{
    const char *argv[] = {"prog", "--set=a=1", "--set", "b=2",
                          "--set=c=3"};
    Cli cli(5, const_cast<char **>(argv), {"set"});
    EXPECT_EQ(cli.list("set"),
              (std::vector<std::string>{"a=1", "b=2", "c=3"}));
    // The scalar accessor sees the last occurrence.
    EXPECT_EQ(cli.str("set", ""), "c=3");
    EXPECT_TRUE(cli.list("missing").empty());
}

TEST(CliDeathTest, HelpPrintsKnownFlagsAndExitsZero)
{
    const char *argv[] = {"prog", "--help"};
    EXPECT_EXIT(
        {
            Cli cli(2, const_cast<char **>(argv), {"alpha", "beta"});
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, UnknownFlagStaysFatal)
{
    const char *argv[] = {"prog", "--alhpa=3"};
    EXPECT_EXIT(
        {
            Cli cli(2, const_cast<char **>(argv), {"alpha"});
        },
        ::testing::ExitedWithCode(1), "unknown flag --alhpa");
}

TEST(CliDeathTest, NumericValuesMustParseWhole)
{
    // A prefix parse would read "1e4" as 1 and "10k" as 10, and "-5"
    // would wrap once cast to a length.
    for (const char *bad : {"--n=1e4", "--n=10k", "--n=abc", "--n=-5",
                            "--n=", "--n=0x10", "--n=99999999999999999999"}) {
        const char *argv[] = {"prog", bad};
        Cli cli(2, const_cast<char **>(argv), {"n"});
        EXPECT_EXIT(cli.integer("n", 0), ::testing::ExitedWithCode(1),
                    "--n needs a non-negative integer")
            << bad;
    }
    for (const char *bad : {"--x=0.1x", "--x=5%", "--x="}) {
        const char *argv[] = {"prog", bad};
        Cli cli(2, const_cast<char **>(argv), {"x"});
        EXPECT_EXIT(cli.real("x", 0.0), ::testing::ExitedWithCode(1),
                    "--x needs a number")
            << bad;
    }
    const char *argv[] = {"prog", "--n=010", "--x=-0.5"};
    Cli cli(3, const_cast<char **>(argv), {"n", "x"});
    EXPECT_EQ(cli.integer("n", 0), 10); // base 10, not octal
    EXPECT_EQ(cli.real("x", 0.0), -0.5);
}

TEST(Logging, Strprintf)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 5, "z"), "x=5 y=z");
    EXPECT_EQ(strprintf("empty"), "empty");
}

// ---------------------------------------------------------------------
// Ring buffer

TEST(Ring, PushPopBothEndsAndIndexing)
{
    Ring<int> r(4);
    EXPECT_TRUE(r.empty());
    r.push_back(1);
    r.push_back(2);
    r.push_back(3);
    EXPECT_EQ(r.front(), 1);
    EXPECT_EQ(r.back(), 3);
    EXPECT_EQ(r[1], 2);
    r.pop_front();
    EXPECT_EQ(r.front(), 2);
    r.push_front(0);
    EXPECT_EQ(r.front(), 0);
    EXPECT_EQ(r.size(), 3u);
    r.pop_back();
    EXPECT_EQ(r.back(), 2);
    EXPECT_EQ(r.size(), 2u);
}

TEST(Ring, GrowsPastCapacityHintPreservingOrder)
{
    Ring<int> r(2);
    // Force wraparound before growth: cycle the head off zero.
    r.push_back(-1);
    r.pop_front();
    for (int i = 0; i < 100; ++i)
        r.push_back(i);
    ASSERT_EQ(r.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r[std::size_t(i)], i);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
    EXPECT_TRUE(r.empty());
}

TEST(Ring, MixedEndTrafficWrapsCleanly)
{
    Ring<int> r(4);
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 3; ++i)
            r.push_back(next_in++);
        for (int i = 0; i < 2; ++i) {
            EXPECT_EQ(r.front(), next_out);
            r.pop_front();
            next_out += 1;
        }
    }
    EXPECT_EQ(r.size(), std::size_t(next_in - next_out));
}

TEST(Ring, InterleavedStreamsStayFifoAcrossWraps)
{
    // SMT-style use: two logical streams (tid 0 / tid 1) share one
    // ring, pushed and popped at different rates, so entries of both
    // streams straddle every wrap boundary.  Each stream must still
    // come out in its own FIFO order.
    struct Entry
    {
        int tid;
        int value;
    };
    Ring<Entry> r(4); // small capacity: wraps and grows repeatedly
    int next_in[2] = {0, 0};
    int next_out[2] = {0, 0};
    int pending = 0;
    for (int round = 0; round < 200; ++round) {
        // Uneven production: stream 0 pushes two, stream 1 pushes one.
        r.push_back(Entry{0, next_in[0]++});
        r.push_back(Entry{1, next_in[1]++});
        r.push_back(Entry{0, next_in[0]++});
        pending += 3;
        // Drain two per round, whichever stream is at the head.
        for (int i = 0; i < 2; ++i) {
            Entry e = r.front();
            r.pop_front();
            pending -= 1;
            ASSERT_EQ(e.value, next_out[e.tid]) << "round " << round;
            next_out[e.tid] += 1;
        }
    }
    EXPECT_EQ(r.size(), std::size_t(pending));
    while (!r.empty()) {
        Entry e = r.front();
        r.pop_front();
        EXPECT_EQ(e.value, next_out[e.tid]);
        next_out[e.tid] += 1;
    }
    EXPECT_EQ(next_out[0], next_in[0]);
    EXPECT_EQ(next_out[1], next_in[1]);
}

TEST(Ring, ClearMidIterationResetsForReuse)
{
    // A squash can clear a queue while a stage is walking it by
    // index; the walk must stop at the (now zero) size and the ring
    // must be immediately reusable, wherever the head had wrapped to.
    Ring<int> r(4);
    for (int spin = 0; spin < 7; ++spin) {
        // Rotate the head off zero before filling.
        r.push_back(-1);
        r.pop_front();
        for (int i = 0; i < 5; ++i)
            r.push_back(i);
        std::size_t visited = 0;
        for (std::size_t i = 0; i < r.size(); ++i) {
            visited += 1;
            if (i == 2) {
                r.clear();
                // Size is re-read by the loop condition: the walk
                // terminates instead of indexing freed slots.
            }
        }
        EXPECT_EQ(visited, 3u);
        EXPECT_TRUE(r.empty());
        EXPECT_EQ(r.size(), 0u);
        // Reuse after clear: order is fresh.
        r.push_back(10);
        r.push_front(9);
        EXPECT_EQ(r.front(), 9);
        EXPECT_EQ(r.back(), 10);
        r.pop_front();
        r.pop_front();
        EXPECT_TRUE(r.empty());
    }
}

TEST(Ring, CapacityAssertsOnEmptyPops)
{
    // sim_assert is compiled into release builds: popping an empty
    // ring must die loudly, not corrupt the head index.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Ring<int> r(2);
    EXPECT_DEATH(r.pop_front(), "assertion failed");
    EXPECT_DEATH(r.pop_back(), "assertion failed");
    r.push_back(1);
    r.pop_front();
    EXPECT_DEATH(r.pop_front(), "assertion failed");
    // After surviving the (forked) death tests, the parent's ring is
    // still coherent.
    r.push_back(2);
    EXPECT_EQ(r.front(), 2);
}


// ---------------------------------------------------------------------
// TimingWheel::nextDue

TEST(TimingWheel, NextDueOnAnEmptyWheelIsTheBound)
{
    TimingWheel<int> w;
    EXPECT_EQ(w.nextDue(1000), 1000u);
    EXPECT_EQ(w.nextDue(kCycleNever), kCycleNever);
}

TEST(TimingWheel, NextDueFindsLevel0EventsAndStopsAtEpochEdges)
{
    TimingWheel<int> w;
    w.schedule(10, 1);
    EXPECT_EQ(w.nextDue(1000), 10u);
    EXPECT_EQ(w.nextDue(7), 7u); // bound first
    w.advanceTo(10, [](int) {});

    // Level 1 (a later epoch): the edge is the conservative answer.
    w.schedule(300, 2);
    EXPECT_EQ(w.nextDue(1000), 256u);
    int fired = 0;
    w.advanceTo(256, [&](int) { fired += 1; });
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(w.nextDue(1000), 300u);

    // Level 0 across the wrap: slot index below now's, due next epoch.
    w.advanceTo(300, [&](int) { fired += 1; });
    EXPECT_EQ(fired, 1);
    w.advanceTo(500, [](int) {});
    w.schedule(530, 3);
    EXPECT_EQ(w.nextDue(1000), 512u);
    w.advanceTo(512, [](int) {});
    EXPECT_EQ(w.nextDue(1000), 530u);

    // Overflow (past level 1's horizon): epoch edges all the way.
    w.advanceTo(530, [](int) {});
    w.schedule(530 + 3 * 65536, 4);
    EXPECT_EQ(w.nextDue(kCycleNever), 768u);
}

TEST(TimingWheel, NextDueNeverSkipsAnEvent)
{
    // Jump straight to each nextDue() answer: every event must fire
    // exactly at the cycle jumped to, across level 0, level 1 and the
    // overflow list, with events added mid-walk.
    TimingWheel<Cycle> w;
    Rng rng(11);
    std::vector<Cycle> due;
    for (int i = 0; i < 300; ++i) {
        Cycle when = 1 + rng.below(3 * 65536);
        due.push_back(when);
        w.schedule(when, when);
    }
    std::vector<Cycle> fired;
    while (!w.empty()) {
        Cycle c = w.nextDue(kCycleNever);
        ASSERT_GT(c, w.now());
        w.advanceTo(c, [&](Cycle when) {
            EXPECT_EQ(when, c);
            fired.push_back(when);
        });
        if (fired.size() % 3 == 0 && due.size() < 600) {
            Cycle when = c + 1 + rng.below(1000);
            due.push_back(when);
            w.schedule(when, when);
        }
    }
    std::sort(due.begin(), due.end());
    EXPECT_EQ(fired, due);
}

} // namespace
} // namespace ltp
