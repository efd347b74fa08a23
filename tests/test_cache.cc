/**
 * @file
 * The content-addressed result cache, end to end: canonical-JSON key
 * stability, workload content identity (kernels, traces by CRC, smt
 * tuples), round-trip bit-identity against fresh simulation for every
 * suite kernel, the model fingerprint, checksum and schema-version
 * gating, and the CachedBackend + Runner warm-sweep behaviour the CLI
 * relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/binio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/sha256.hh"
#include "sim/cell_key.hh"
#include "sim/exec_backend.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"
#include "trace/trace_workload.hh"

namespace {

using namespace ltp;

RunLengths
tiny()
{
    RunLengths l;
    l.funcWarm = 2000;
    l.pipeWarm = 400;
    l.detail = 1000;
    return l;
}

/** Fresh scratch dir per fixture instantiation; removed afterwards. */
class CacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (std::filesystem::temp_directory_path() /
                ("ltp_cache_test_" + std::to_string(::getpid()) + "_" +
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

    std::string dir_;
};

// ---------------------------------------------------------------------------
// Canonicalization and key stability
// ---------------------------------------------------------------------------

/** The canonical form a key hashes: parse + compact re-render. */
std::string
canonical(const std::string &text)
{
    return writeJsonCompact(parseJson(text));
}

TEST(CanonicalJson, IndependentOfFieldOrderAndWhitespace)
{
    EXPECT_EQ(canonical("{\"b\": 1, \"a\": {\"y\": 2, \"x\": 3}}"),
              canonical("{ \"a\" : { \"x\" :3, \"y\" :2},\"b\":1 }"));
    EXPECT_NE(canonical("{\"a\": 1}"), canonical("{\"a\": 2}"));
}

TEST(CanonicalJson, NumberLexemesSurviveExactly)
{
    // Integers above 2^53 and float lexemes must not be reformatted
    // through a lossy double.
    std::string canon =
        canonical("{\"big\": 18446744073709551615, \"f\": 0.1}");
    EXPECT_NE(canon.find("18446744073709551615"), std::string::npos);
    EXPECT_NE(canon.find("0.1"), std::string::npos);
}

TEST(CellKeyTest, StableAcrossConfigRoundTrip)
{
    SimConfig cfg = SimConfig::baseline().withIq(48).withSeed(7);
    // Serializing and re-parsing the config must not move the key:
    // the canonical form absorbs any field-order or formatting drift.
    SimConfig round = configFromJson(parseJson(configToJson(cfg)));
    EXPECT_EQ(cellKeyFor(cfg, "paper_loop", tiny()).hex,
              cellKeyFor(round, "paper_loop", tiny()).hex);
}

/** A config whose canonical text exercises a non-default double and
 *  the two escaped bytes a name can carry. */
SimConfig
escapedConfig()
{
    SimConfig c = SimConfig::ltpProposal(LtpMode::NRNU);
    c.name = "odd \"quoted\" back\\slash";
    c.mem.dram.cpuCyclesPerDramCycle = 3.7;
    c.seed = 42;
    return c;
}

/** @p preimage with the build's fingerprint replaced by a fixed token:
 *  what a pin may depend on (the layout and the config text), not the
 *  build. */
std::string
unbuilt(std::string preimage)
{
    const std::string &fp = modelFingerprint();
    auto at = preimage.find(fp);
    EXPECT_EQ(at, std::string("model: ").size());
    return at == std::string::npos
               ? preimage
               : preimage.replace(at, fp.size(), "<fingerprint>");
}

TEST(CellKeyTest, KeysArePinned)
{
    // The preimage, line by line; the key is its SHA-256.
    RunLengths l = tiny();
    SamplePlan plan = SamplePlan::defaults();
    SimConfig cfg = escapedConfig();
    std::string preimage =
        cellKeyPreimage(cfg, "kernel/paper_loop", l, &plan);
    EXPECT_EQ(unbuilt(preimage),
              "model: <fingerprint>\n"
              "config: " + writeJsonCompact(configTree(cfg)) + "\n"
              "workload: kernel/paper_loop\n"
              "staging: 2000/400/1000\n"
              "sampling: 40000/2000/10000 x8\n");
    EXPECT_EQ(cellKeyFor(cfg, "paper_loop", l, &plan).hex,
              sha256Hex(preimage));
    EXPECT_EQ(cellKeyFor(cfg, "paper_loop", l).hex,
              sha256Hex(cellKeyPreimage(cfg, "kernel/paper_loop", l)));

    // The canonical config texts, pinned by digest: a change here
    // re-keys every cached cell of that config.
    auto pin = [&](const SimConfig &c) {
        return sha256Hex(
            unbuilt(cellKeyPreimage(c, "kernel/paper_loop", l)));
    };
    EXPECT_EQ(pin(SimConfig::baseline()),
              "10ad69a3af7f257cabdc95bc8a9e676a"
              "cfdb0abde85d854f60b7db4061f0adea");
    EXPECT_EQ(pin(SimConfig::ltpProposal(LtpMode::NU)),
              "2650730e53c346826dbd598c1d70d426"
              "f8fecb7824dd7ab6c4131712b286773f");
    // Infinite sizes key as the string "inf".
    EXPECT_EQ(pin(SimConfig::limitStudy(LtpMode::NRNU)),
              "cfbbaaf1faa8087837c5e88e4150177f"
              "634e89fe98d81d37a271e1ec4331e9de");
    EXPECT_EQ(pin(escapedConfig()),
              "7fef4a742fef91b00e8b9b1ef0df5790"
              "9f766ce96390344f47342c50f47a0635");
}

TEST(CellKeyTest, FingerprintMatchesTheSources)
{
    // The build step (cmake/model_fingerprint.cmake), recomputed over
    // the source tree: a stale generated header would key results by
    // a model the library no longer is.
    namespace fs = std::filesystem;
    const fs::path root = LTP_SOURCE_DIR;
    std::vector<std::string> files;
    for (const auto &e : fs::recursive_directory_iterator(root / "src"))
        if (e.is_regular_file())
            files.push_back(fs::relative(e.path(), root).generic_string());
    std::sort(files.begin(), files.end());
    std::string manifest;
    for (const std::string &f : files) {
        std::ifstream in(root / f, std::ios::binary);
        manifest += f + " " +
                    sha256Hex(std::string(
                        std::istreambuf_iterator<char>(in), {})) +
                    "\n";
    }
    EXPECT_GT(files.size(), 100u);
    EXPECT_EQ(modelFingerprint(), sha256Hex(manifest));
}

TEST(CellKeyTest, DistinctAcrossEveryInput)
{
    SimConfig base = SimConfig::baseline();
    RunLengths lengths = tiny();

    std::set<std::string> keys;
    keys.insert(cellKeyFor(base, "paper_loop", lengths).hex);
    keys.insert(
        cellKeyFor(base.withSeed(2), "paper_loop", lengths).hex);
    keys.insert(cellKeyFor(SimConfig::baseline().withIq(32),
                           "paper_loop", lengths)
                    .hex);
    keys.insert(
        cellKeyFor(SimConfig::baseline(), "graph_walk", lengths).hex);
    RunLengths staged = lengths;
    staged.detail += 1;
    keys.insert(
        cellKeyFor(SimConfig::baseline(), "paper_loop", staged).hex);

    EXPECT_EQ(keys.size(), 5u) << "some cell keys aliased";
    for (const std::string &k : keys)
        EXPECT_EQ(k.size(), 64u);
}

TEST(CellKeyTest, SmtIdentityDecomposesMembers)
{
    std::string ab =
        workloadIdentity(smtName({"paper_loop", "graph_walk"}));
    std::string ba =
        workloadIdentity(smtName({"graph_walk", "paper_loop"}));
    EXPECT_NE(ab.find("kernel/paper_loop"), std::string::npos);
    EXPECT_NE(ab.find("kernel/graph_walk"), std::string::npos);
    // Thread order is architectural (thread 0 vs thread 1), so the
    // identities must not commute.
    EXPECT_NE(ab, ba);
}

TEST_F(CacheTest, TraceIdentityIsContentAddressed)
{
    std::filesystem::create_directories(dir_);
    TraceInfo info;
    info.kernel = "paper_loop";
    info.seed = 3;
    info.funcWarm = tiny().funcWarm;
    info.pipeWarm = tiny().pipeWarm;
    info.detail = tiny().detail;
    std::string bytes = recordTrace(info);
    std::string path = dir_ + "/a.lttr";
    writeTraceFile(path, bytes);

    // A byte-identical copy under another name keys identically...
    std::string copy = dir_ + "/renamed_copy.lttr";
    writeTraceFile(copy, bytes);
    std::string idA = workloadIdentity("trace:" + path);
    EXPECT_EQ(idA, workloadIdentity("trace:" + copy));
    EXPECT_NE(idA.find("trace/paper_loop@crc32:"), std::string::npos);

    // ...while a re-recording with another seed does not.
    info.seed = 4;
    std::string other = dir_ + "/b.lttr";
    writeTraceFile(other, recordTrace(info));
    EXPECT_NE(idA, workloadIdentity("trace:" + other));
}

// ---------------------------------------------------------------------------
// Store / lookup round-trip
// ---------------------------------------------------------------------------

/** The file of @p key's entry under @p dir. */
std::string
entryPath(const std::string &dir, const CellKey &key)
{
    return dir + "/" + key.hex.substr(0, 2) + "/" + key.hex.substr(2, 2) +
           "/" + key.hex + ".json";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** @p text (an entry) with the @p needle replaced by @p with and the
 *  checksum recomputed, so the edit reaches the checks behind it. */
std::string
editedAndResealed(std::string text, const std::string &needle,
                  const std::string &with)
{
    auto at = text.find(needle);
    EXPECT_NE(at, std::string::npos) << needle;
    if (at != std::string::npos)
        text.replace(at, needle.size(), with);
    const std::size_t digits = std::string("{\n  \"crc32\": \"").size();
    return text.replace(digits, 8,
                        strprintf("%08x", crc32(text.substr(digits + 8))));
}

TEST_F(CacheTest, RoundTripIsBitIdenticalForEverySuiteKernel)
{
    ResultCache cache(dir_);
    SimConfig cfg = SimConfig::baseline().withSeed(1);
    for (const std::string &kernel : allKernelNames()) {
        Metrics fresh = Simulator::runOnce(cfg, kernel, tiny());
        CellKey key = cellKeyFor(cfg, kernel, tiny());
        cache.store(key, cfg, tiny(), fresh);

        Metrics cached;
        ASSERT_TRUE(cache.lookup(key, &cached)) << kernel;
        EXPECT_EQ(metricsToJson(cached), metricsToJson(fresh))
            << "cache round-trip changed bits for " << kernel;
    }
    EXPECT_EQ(cache.stats().entries, allKernelNames().size());
}

TEST_F(CacheTest, EntryRoundTripsValueByValue)
{
    // The entry file, read back value by value: the CRC seal leads,
    // then the body's keys (sorted), then every Metrics value exactly.
    ResultCache cache(dir_);
    SimConfig cfg = escapedConfig();
    RunLengths lengths = tiny();
    lengths.funcWarm = (std::uint64_t(1) << 60) + 1; // exact above 2^53
    Metrics m = Simulator::runOnce(SimConfig::baseline(), "paper_loop",
                                   tiny());
    m.config = cfg.name;
    CellKey key = cellKeyFor(cfg, "paper_loop", lengths);
    cache.store(key, cfg, lengths, m);

    std::string text = readFile(entryPath(dir_, key));
    ASSERT_EQ(text.rfind("{\n  \"crc32\": \"", 0), 0u) << text;
    JsonValue root = parseJson(text);
    const auto &f = root.object;
    EXPECT_EQ(f.size(), 7u);
    EXPECT_EQ(f.at("crc32").str.size(), 8u);
    EXPECT_EQ(f.at("model").str, modelFingerprint());
    EXPECT_EQ(f.at("key").str, key.hex);
    EXPECT_EQ(f.at("config").str, cfg.name);
    EXPECT_EQ(f.at("workload").str, key.workload);
    const auto &l = f.at("lengths").object;
    EXPECT_EQ(l.size(), 3u);
    EXPECT_EQ(jsonToU64(l.at("funcWarm")), lengths.funcWarm);
    EXPECT_EQ(jsonToU64(l.at("pipeWarm")), lengths.pipeWarm);
    EXPECT_EQ(jsonToU64(l.at("detail")), lengths.detail);
    JsonValue want = metricsTree(m);
    const auto &got = f.at("metrics").object;
    EXPECT_EQ(got.size(), want.object.size());
    for (const auto &[name, value] : want.object) {
        auto it = got.find(name);
        ASSERT_NE(it, got.end()) << name;
        EXPECT_EQ(writeJsonCompact(it->second), writeJsonCompact(value))
            << name;
    }

    Metrics back;
    ASSERT_TRUE(cache.lookup(key, &back));
    EXPECT_EQ(metricsToJson(back), metricsToJson(m));
}

TEST_F(CacheTest, FutureSchemaVersionsReadAsMisses)
{
    ResultCache cache(dir_);
    SimConfig cfg = SimConfig::baseline();
    Metrics m = Simulator::runOnce(cfg, "paper_loop", tiny());
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());
    cache.store(key, cfg, tiny(), m);
    ASSERT_TRUE(cache.lookup(key, nullptr));

    // Bump the embedded Metrics schemaVersion past what this reader
    // supports, under a valid checksum: the entry must degrade to a
    // miss, not a crash, and gc must collect it.
    std::vector<CacheEntryInfo> entries = cache.list();
    ASSERT_EQ(entries.size(), 1u);
    std::string path = entryPath(dir_, key);
    std::string text = readFile(path);
    std::ofstream(path, std::ios::trunc) << editedAndResealed(
        text, "\"schemaVersion\": " + std::to_string(kMetricsSchemaVersion),
        "\"schemaVersion\": " + std::to_string(kMetricsSchemaVersion + 1));

    EXPECT_FALSE(cache.lookup(key, nullptr));
    EXPECT_EQ(cache.stats().invalid, 1u);
    // usage() walks without reading: the invalid entry still counts.
    CacheStats usage = cache.usage();
    EXPECT_EQ(usage.entries, 1u);
    EXPECT_EQ(usage.bytes, cache.stats().bytes);
    EXPECT_EQ(usage.invalid, 0u);
    EXPECT_EQ(cache.gc(), 1u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST_F(CacheTest, AnotherModelsEntryMissesButIsKept)
{
    // An entry stored by another build, at this build's key and under
    // a valid checksum: never this build's number, but still a whole
    // entry that gc leaves to the build that can read it.
    ResultCache cache(dir_);
    SimConfig cfg = SimConfig::baseline();
    Metrics m = Simulator::runOnce(cfg, "paper_loop", tiny());
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());
    cache.store(key, cfg, tiny(), m);
    ASSERT_TRUE(cache.lookup(key, nullptr));

    std::string path = entryPath(dir_, key);
    std::string text = readFile(path);
    std::ofstream(path, std::ios::trunc) << editedAndResealed(
        text, modelFingerprint(), std::string(64, 'f'));

    EXPECT_FALSE(cache.lookup(key, nullptr));
    ASSERT_EQ(cache.list().size(), 1u);
    EXPECT_TRUE(cache.list()[0].valid);
    EXPECT_EQ(cache.list()[0].model, std::string(64, 'f'));
    EXPECT_EQ(cache.gc(), 0u);
}

TEST_F(CacheTest, GcOtherModelsRemovesAnotherModelsEntry)
{
    // `ltp cache gc --other-models`: entries another build stored go,
    // this build's stay.
    ResultCache cache(dir_);
    SimConfig cfg = SimConfig::baseline();
    Metrics m = Simulator::runOnce(cfg, "paper_loop", tiny());
    CellKey mine = cellKeyFor(cfg, "paper_loop", tiny());
    CellKey theirs = cellKeyFor(cfg, "graph_walk", tiny());
    cache.store(mine, cfg, tiny(), m);
    cache.store(theirs, cfg, tiny(), m);
    std::string path = entryPath(dir_, theirs);
    std::string text = readFile(path);
    std::ofstream(path, std::ios::trunc) << editedAndResealed(
        text, modelFingerprint(), std::string(64, 'f'));

    EXPECT_EQ(cache.gc(), 0u);
    EXPECT_EQ(cache.gc(0.0, 0, /*otherModels=*/true), 1u);
    ASSERT_EQ(cache.list().size(), 1u);
    EXPECT_EQ(cache.list()[0].key, mine.hex);
    EXPECT_TRUE(cache.lookup(mine, nullptr));
}

TEST(MetricsSchema, ReaderRejectsNewerVersions)
{
    Metrics m = Simulator::runOnce(SimConfig::baseline(), "paper_loop",
                                   tiny());
    std::string json = metricsToJson(m);
    // Round-trips at the current version...
    EXPECT_EQ(metricsToJson(metricsFromJson(parseJson(json))), json);

    // ...and refuses anything newer, naming the supported range.
    std::string needle =
        "\"schemaVersion\": " + std::to_string(kMetricsSchemaVersion);
    auto at = json.find(needle);
    ASSERT_NE(at, std::string::npos);
    json.replace(at, needle.size(),
                 "\"schemaVersion\": " +
                     std::to_string(kMetricsSchemaVersion + 1));
    EXPECT_THROW(metricsFromJson(parseJson(json)), std::runtime_error);
}

// ---------------------------------------------------------------------------
// CachedBackend + Runner
// ---------------------------------------------------------------------------

TEST_F(CacheTest, CachedBackendHitsOnSecondRun)
{
    auto cache = std::make_shared<ResultCache>(dir_);
    CachedBackend backend(LocalBackend::instance(), cache);

    SimConfig cfg = SimConfig::baseline();
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());

    CellResult first = backend.runCell(key, cfg, "paper_loop", tiny(), SamplePlan{});
    EXPECT_FALSE(first.cacheHit);
    CellResult second =
        backend.runCell(key, cfg, "paper_loop", tiny(), SamplePlan{});
    EXPECT_TRUE(second.cacheHit);
    EXPECT_EQ(metricsToJson(first.metrics),
              metricsToJson(second.metrics));
    EXPECT_EQ(backend.hits(), 1u);
    EXPECT_EQ(backend.misses(), 1u);
}

TEST_F(CacheTest, WarmSweepAnswersEveryCellFromCache)
{
    SweepSpec spec = SweepSpec::cross(
        "warm_sweep",
        {SimConfig::baseline().withName("base"),
         SimConfig::baseline().withIq(32).withName("iq32")},
        {"paper_loop", "graph_walk"}, tiny());

    auto runOnce = [&]() {
        // A fresh backend per run: only the on-disk cache persists.
        auto backend = std::make_shared<CachedBackend>(
            LocalBackend::instance(),
            std::make_shared<ResultCache>(dir_));
        return Runner(2, backend).run(spec);
    };

    SweepResult cold = runOnce();
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.backend, "cache(local)");

    SweepResult warm = runOnce();
    EXPECT_EQ(warm.cacheHits, warm.simulations);
    for (const std::string &row : cold.grid.rows())
        for (const std::string &series : cold.grid.series(row))
            EXPECT_EQ(metricsToJson(warm.grid.at(row, series)),
                      metricsToJson(cold.grid.at(row, series)))
                << row << "/" << series;
}

TEST_F(CacheTest, NeverCorruptsResultsUnderConcurrentWriters)
{
    // Two Runners racing on the same fresh cache directory: atomic
    // rename publication means every lookup afterwards sees a whole,
    // valid entry (last writer wins; both wrote identical bytes).
    SweepSpec spec = SweepSpec::cross(
        "race", {SimConfig::baseline().withName("base")},
        allKernelNames(), tiny());

    auto mk = [&]() {
        return std::make_shared<CachedBackend>(
            LocalBackend::instance(),
            std::make_shared<ResultCache>(dir_));
    };
    std::thread other([&]() { Runner(2, mk()).run(spec); });
    Runner(2, mk()).run(spec);
    other.join();

    ResultCache cache(dir_);
    EXPECT_EQ(cache.stats().invalid, 0u);
    EXPECT_EQ(cache.stats().entries, allKernelNames().size());
}

} // namespace
