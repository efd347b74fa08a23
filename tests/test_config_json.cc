/**
 * @file
 * Tests for the serializable SimConfig: exact JSON round trips of every
 * preset and fluent mutator, the dotted-path override setter, and the
 * descriptive errors required of malformed input (always naming the
 * offending path).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/config.hh"

namespace ltp {
namespace {

/** configToJson covers every registered field, so equality of the two
 *  dumps is equality of the two configs. */
void
expectExactRoundTrip(const SimConfig &c)
{
    std::string json = configToJson(c);
    SimConfig back = configFromJson(parseJson(json));
    EXPECT_EQ(configToJson(back), json) << json;
}

template <typename Fn>
std::string
messageOf(Fn &&fn)
{
    try {
        fn();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(ConfigJson, RoundTripAllPresets)
{
    expectExactRoundTrip(SimConfig::baseline());
    for (LtpMode mode :
         {LtpMode::Off, LtpMode::NU, LtpMode::NR, LtpMode::NRNU}) {
        expectExactRoundTrip(SimConfig::ltpProposal(mode));
        expectExactRoundTrip(SimConfig::limitStudy(mode));
    }
}

TEST(ConfigJson, RoundTripEveryFluentMutator)
{
    SimConfig c = SimConfig::baseline()
                      .withName("mutated \"config\"")
                      .withIq(48)
                      .withRegs(112)
                      .withLq(40)
                      .withSq(24)
                      .withRob(192)
                      .withLtp(LtpMode::NRNU, 96, 3)
                      .withOracle()
                      .withUit(512)
                      .withTickets(17)
                      .withMonitor(false)
                      .withPrefetcher(false)
                      .withSeed(0xdeadbeefcafe1234ull);
    expectExactRoundTrip(c);

    SimConfig back = configFromJson(parseJson(configToJson(c)));
    EXPECT_EQ(back.name, "mutated \"config\"");
    EXPECT_EQ(back.core.iqSize, 48);
    EXPECT_EQ(back.core.intRegs, 112);
    EXPECT_EQ(back.core.fpRegs, 112);
    EXPECT_EQ(back.core.lqSize, 40);
    EXPECT_EQ(back.core.sqSize, 24);
    EXPECT_EQ(back.core.robSize, 192);
    EXPECT_EQ(back.core.ltp.mode, LtpMode::NRNU);
    EXPECT_EQ(back.core.ltp.entries, 96);
    EXPECT_EQ(back.core.ltp.insertPorts, 3);
    EXPECT_EQ(back.core.ltp.extractPorts, 3);
    EXPECT_EQ(back.core.ltp.classifier, ClassifierKind::Oracle);
    EXPECT_EQ(back.core.ltp.uitEntries, 512);
    EXPECT_EQ(back.core.ltp.numTickets, 17);
    EXPECT_FALSE(back.core.ltp.useMonitor);
    EXPECT_FALSE(back.mem.prefetchEnabled);
    EXPECT_EQ(back.seed, 0xdeadbeefcafe1234ull);

    expectExactRoundTrip(
        SimConfig::ltpProposal().withLearned().withLtpOff());
}

TEST(ConfigJson, InfiniteSizesSpellInf)
{
    SimConfig c = SimConfig::limitStudy(LtpMode::NRNU);
    std::string json = configToJson(c);
    EXPECT_NE(json.find("\"iq\": \"inf\""), std::string::npos) << json;

    SimConfig back = configFromJson(parseJson(json));
    EXPECT_EQ(back.core.iqSize, kInfiniteSize);
    EXPECT_EQ(back.core.intRegs, kInfiniteSize);
    EXPECT_EQ(back.mem.l1dMshrs, kInfiniteSize);
}

TEST(ConfigJson, PartialJsonAppliesOntoDefaults)
{
    SimConfig c = configFromJson(parseJson(
        "{\"core\": {\"iq\": 24, \"ltp\": {\"mode\": \"NR+NU\"}},"
        " \"mem\": {\"prefetchEnabled\": false}}"));
    EXPECT_EQ(c.core.iqSize, 24);
    EXPECT_EQ(c.core.ltp.mode, LtpMode::NRNU);
    EXPECT_FALSE(c.mem.prefetchEnabled);
    // Untouched fields keep their defaults.
    EXPECT_EQ(c.core.robSize, 256);
    EXPECT_EQ(c.mem.l2.sizeKB, 256);
}

TEST(ConfigJson, FlatDottedKeysAreEquivalentToNesting)
{
    SimConfig nested = configFromJson(parseJson("{\"core\": {\"iq\": 24}}"));
    SimConfig flat = configFromJson(parseJson("{\"core.iq\": 24}"));
    EXPECT_EQ(configToJson(nested), configToJson(flat));
}

// ---------------------------------------------------------------------------
// applyOverride
// ---------------------------------------------------------------------------

TEST(ConfigJson, ApplyOverrideReachesEveryLayer)
{
    SimConfig c = SimConfig::baseline();
    applyOverride(c, "name", "renamed");
    applyOverride(c, "seed", "42");
    applyOverride(c, "core.iq", "32");
    applyOverride(c, "core.ltp.mode", "nrnu");
    applyOverride(c, "core.ltp.classifier", "oracle");
    applyOverride(c, "core.ltp.monitor", "false");
    applyOverride(c, "core.ltp.wakeup", "lazy");
    applyOverride(c, "mem.l1d.sizeKB", "64");
    applyOverride(c, "mem.dram.cpuCyclesPerDramCycle", "5.5");
    applyOverride(c, "mem.llThreshold", "55");
    applyOverride(c, "core.lq", "inf");

    EXPECT_EQ(c.name, "renamed");
    EXPECT_EQ(c.seed, 42u);
    EXPECT_EQ(c.core.iqSize, 32);
    EXPECT_EQ(c.core.ltp.mode, LtpMode::NRNU);
    EXPECT_EQ(c.core.ltp.classifier, ClassifierKind::Oracle);
    EXPECT_FALSE(c.core.ltp.useMonitor);
    EXPECT_EQ(c.core.ltp.wakeup, WakeupPolicy::Lazy);
    EXPECT_EQ(c.mem.l1d.sizeKB, 64);
    EXPECT_DOUBLE_EQ(c.mem.dram.cpuCyclesPerDramCycle, 5.5);
    EXPECT_EQ(c.mem.llThreshold, 55u);
    EXPECT_EQ(c.core.lqSize, kInfiniteSize);

    expectExactRoundTrip(c);
}

TEST(ConfigJson, ApplyOverrideUnknownPathNamesThePath)
{
    SimConfig c;
    EXPECT_THROW(applyOverride(c, "core.iqq", "32"), std::runtime_error);
    std::string msg =
        messageOf([&]() { applyOverride(c, "core.iqq", "32"); });
    EXPECT_NE(msg.find("core.iqq"), std::string::npos) << msg;

    msg = messageOf([&]() { applyOverride(c, "", "1"); });
    EXPECT_NE(msg.find("unknown config path"), std::string::npos) << msg;
}

TEST(ConfigJson, ApplyOverrideSuggestsTheNearestPath)
{
    SimConfig c;
    // One-edit typos resolve to the intended path.
    std::string msg =
        messageOf([&]() { applyOverride(c, "core.iqq", "32"); });
    EXPECT_NE(msg.find("did you mean 'core.iq'"), std::string::npos)
        << msg;

    msg = messageOf(
        [&]() { applyOverride(c, "core.numThread", "2"); });
    EXPECT_NE(msg.find("did you mean 'core.numThreads'"),
              std::string::npos)
        << msg;

    msg = messageOf(
        [&]() { applyOverride(c, "mem.l1d.sizeKb", "64"); });
    EXPECT_NE(msg.find("did you mean 'mem.l1d.sizeKB'"),
              std::string::npos)
        << msg;

    // Garbage nowhere near any path gets no misleading suggestion,
    // but still the canonical error.
    msg = messageOf(
        [&]() { applyOverride(c, "zzz.qqq.www.unrelated", "1"); });
    EXPECT_NE(msg.find("unknown config path"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
}

TEST(ConfigJson, OutOfRangeAndFractionalValuesAreRejected)
{
    SimConfig c;
    std::string msg = messageOf(
        [&]() { applyOverride(c, "core.iq", "4294967296"); });
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core.iq"), std::string::npos) << msg;

    msg = messageOf([&]() { applyOverride(c, "seed", "-1"); });
    EXPECT_NE(msg.find("seed"), std::string::npos) << msg;

    // Zero-padded values are decimal, not octal.
    applyOverride(c, "core.iq", "010");
    EXPECT_EQ(c.core.iqSize, 10);

    msg = messageOf([]() { configFromJson(parseJson("{\"seed\": 2.5}")); });
    EXPECT_NE(msg.find("seed"), std::string::npos) << msg;

    msg = messageOf([]() { configFromJson(parseJson("{\"seed\": -1}")); });
    EXPECT_NE(msg.find("seed"), std::string::npos) << msg;
}

TEST(ConfigJson, ApplyOverrideBadValueNamesThePath)
{
    SimConfig c;
    std::string msg =
        messageOf([&]() { applyOverride(c, "core.iq", "many"); });
    EXPECT_NE(msg.find("core.iq"), std::string::npos) << msg;
    EXPECT_NE(msg.find("many"), std::string::npos) << msg;

    msg = messageOf(
        [&]() { applyOverride(c, "core.ltp.mode", "sideways"); });
    EXPECT_NE(msg.find("core.ltp.mode"), std::string::npos) << msg;

    msg = messageOf(
        [&]() { applyOverride(c, "core.ltp.monitor", "perhaps"); });
    EXPECT_NE(msg.find("core.ltp.monitor"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// configFromJson errors
// ---------------------------------------------------------------------------

TEST(ConfigJson, UnknownKeyNamesThePath)
{
    std::string msg = messageOf([]() {
        configFromJson(parseJson("{\"core\": {\"iqq\": 32}}"));
    });
    EXPECT_NE(msg.find("core.iqq"), std::string::npos) << msg;

    msg = messageOf([]() { configFromJson(parseJson("{\"cores\": {}}")); });
    EXPECT_NE(msg.find("cores"), std::string::npos) << msg;
}

TEST(ConfigJson, WrongTypeNamesThePath)
{
    std::string msg = messageOf([]() {
        configFromJson(parseJson("{\"core\": {\"iq\": true}}"));
    });
    EXPECT_NE(msg.find("core.iq"), std::string::npos) << msg;
    EXPECT_NE(msg.find("number"), std::string::npos) << msg;

    msg = messageOf([]() {
        configFromJson(parseJson("{\"mem\": {\"prefetchEnabled\": 3}}"));
    });
    EXPECT_NE(msg.find("mem.prefetchEnabled"), std::string::npos) << msg;

    msg = messageOf([]() { configFromJson(parseJson("{\"core\": 7}")); });
    EXPECT_NE(msg.find("core"), std::string::npos) << msg;
}

TEST(ConfigJson, MalformedJsonThrows)
{
    EXPECT_THROW(configFromJson(parseJson("{\"core\": ")), std::runtime_error);
    EXPECT_THROW(configFromJson(parseJson("[1, 2]")), std::runtime_error);
    // Partially-parseable number lexemes are typos, not numbers.
    EXPECT_THROW(configFromJson(parseJson("{\"mem\": {\"dram\": "
                                "{\"cpuCyclesPerDramCycle\": 4..25}}}")),
                 std::runtime_error);
    EXPECT_THROW(configFromJson(parseJson("{\"seed\": 1e}")),
                 std::runtime_error);
}

TEST(ConfigJson, ConfigPathsEnumerateTheSchema)
{
    std::vector<std::string> paths = configPaths();
    EXPECT_GT(paths.size(), 50u);
    auto has = [&](const char *p) {
        return std::find(paths.begin(), paths.end(), p) != paths.end();
    };
    EXPECT_TRUE(has("name"));
    EXPECT_TRUE(has("core.iq"));
    EXPECT_TRUE(has("core.ltp.tickets"));
    EXPECT_TRUE(has("core.fu.alu"));
    EXPECT_TRUE(has("mem.dram.rowBytes"));
    EXPECT_TRUE(has("mem.llThreshold"));
    EXPECT_FALSE(has("core.iqSize")); // schema names, not member names
}

} // namespace
} // namespace ltp
