/**
 * @file
 * Seeded mutation fuzzing of the readers that take untrusted bytes: on
 * the serve hit path a `run` frame, a `result` frame and a result-cache
 * entry, the `.ltcp` checkpoint and `.lttr` trace readers, and scenario
 * JSON.  Each seed input is mutated by byte flips, truncation,
 * insertion and duplicated object keys (or u32 fields set to decoder
 * bounds), under a fixed seed and a fixed mutation count (well under
 * 2 s, also under ASan/UBSan).
 *
 * The invariant is reject-cleanly-or-round-trip:
 *  - parseJson either throws std::runtime_error or yields a tree whose
 *    compact and indented renderings parse back to an equal tree;
 *  - configFromJson / metricsFromJson on the parsed subtree either
 *    throw std::runtime_error or yield a value that round-trips
 *    exactly through its tree;
 *  - ResultCache::lookup on a mutated entry misses, or returns exactly
 *    the stored Metrics (the entry's checksum covers its bytes);
 *  - a `.ltcp` checkpoint, mutated and then re-sealed with a valid CRC
 *    so the mutation reaches the decoder, is rejected with
 *    std::runtime_error or re-encodes to exactly its bytes.  The seed
 *    corpus is the corruption matrix of CheckpointTest;
 *  - a `.lttr` trace, mutated and re-sealed alike, is rejected or
 *    re-encodes (header and every record) to exactly its bytes;
 *  - scenario JSON is rejected with std::runtime_error (at parse or at
 *    compile), or compiles to a spec whose exported explicit-jobs file
 *    compiles back to the same file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/binio.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "sample/checkpoint.hh"
#include "sim/cell_key.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/scenario.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"

namespace ltp {
namespace {

constexpr std::uint64_t kSeed = 0x17f0221e5;
constexpr int kMutationsPerCorpus = 500;

bool
treeEqual(const JsonValue &a, const JsonValue &b)
{
    if (a.kind != b.kind || a.boolean != b.boolean || a.str != b.str ||
        a.array.size() != b.array.size() ||
        a.object.size() != b.object.size())
        return false;
    if (a.isNumber() && std::memcmp(&a.num, &b.num, sizeof(double)) != 0)
        return false;
    for (std::size_t i = 0; i < a.array.size(); ++i)
        if (!treeEqual(a.array[i], b.array[i]))
            return false;
    auto bi = b.object.begin();
    for (const auto &[key, value] : a.object) {
        if (key != bi->first || !treeEqual(value, bi->second))
            return false;
        ++bi;
    }
    return true;
}

/** Byte strings that steer mutations toward the grammar's edges. */
const std::vector<std::string> &
tokens()
{
    static const std::vector<std::string> t = {
        "\"", "\\", "{", "}", "[", "]", ",", ":", " ", "\n", "\t",
        std::string(1, '\0'), "0", "9", "-", "+", ".", "e", "E", "nan",
        "-inf", "1e400", "-1", "18446744073709551616", "null", "true",
        "\"inf\"", "{}", "[]", "\\u0041", "\xff"};
    return t;
}

/** Compact rendering with one object member duplicated: the
 *  @p target-th object (pre-order) repeats one of its members, with
 *  its own value or a sibling's. */
void
renderDuplicating(const JsonValue &v, Rng &rng, int target, int &seen,
                  std::string &out)
{
    if (v.isArray()) {
        out += '[';
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            if (i)
                out += ',';
            renderDuplicating(v.array[i], rng, target, seen, out);
        }
        out += ']';
        return;
    }
    if (!v.isObject() || v.object.empty()) {
        out += writeJsonCompact(v);
        return;
    }
    bool dup = seen++ == target;
    std::size_t pick = dup ? rng.below(v.object.size()) : 0;
    std::size_t from = dup ? rng.below(v.object.size()) : 0;
    out += '{';
    std::size_t i = 0;
    for (const auto &[key, value] : v.object) {
        if (i)
            out += ',';
        out += writeJsonCompact(jsonStr(key)) + ":";
        renderDuplicating(value, rng, target, seen, out);
        if (dup && i == pick) {
            auto other = std::next(v.object.begin(), long(from));
            out += "," + writeJsonCompact(jsonStr(key)) + ":" +
                   writeJsonCompact(other->second);
        }
        i += 1;
    }
    out += '}';
}

int
objectCount(const JsonValue &v)
{
    int n = v.isObject() && !v.object.empty() ? 1 : 0;
    for (const JsonValue &e : v.array)
        n += objectCount(e);
    for (const auto &kv : v.object)
        n += objectCount(kv.second);
    return n;
}

enum class Mutation { Flip, Truncate, Insert, Duplicate };

/** One mutant of @p seed; @p kind reports which mutation made it. */
std::string
mutate(const std::string &seed, const JsonValue &tree, Rng &rng,
       Mutation *kind)
{
    *kind = Mutation(rng.below(4));
    std::string s = seed;
    std::size_t at = rng.below(s.size() + 1);
    switch (*kind) {
      case Mutation::Flip:
        at = rng.below(s.size());
        if (rng.below(2))
            s[at] = char(s[at] ^ char(1u << rng.below(8)));
        else
            s[at] = char(rng.below(256));
        return s;
      case Mutation::Truncate:
        return s.substr(0, at);
      case Mutation::Insert:
        if (rng.below(2))
            s.insert(at, tokens()[rng.below(tokens().size())]);
        else
            s.insert(at, 1, char(rng.below(256)));
        return s;
      case Mutation::Duplicate: {
        std::string out;
        int seen = 0;
        renderDuplicating(tree, rng, int(rng.below(objectCount(tree))),
                          seen, out);
        return out;
      }
    }
    return s;
}

/** parseJson's half of the invariant; @return true when @p text parsed
 *  (into @p out). */
bool
parsesAndRoundTrips(const std::string &text, JsonValue *out)
{
    try {
        *out = parseJson(text);
    } catch (const std::runtime_error &) {
        return false;
    }
    std::string compact = writeJsonCompact(*out);
    JsonValue again = parseJson(compact);
    EXPECT_TRUE(treeEqual(*out, again)) << text;
    EXPECT_EQ(writeJsonCompact(again), compact);
    EXPECT_TRUE(treeEqual(*out, parseJson(writeJson(*out)))) << text;
    return true;
}

const JsonValue *
member(const JsonValue &v, const char *key)
{
    if (!v.isObject())
        return nullptr;
    auto it = v.object.find(key);
    return it == v.object.end() ? nullptr : &it->second;
}

/** A Metrics value with every block present. */
Metrics
richMetrics()
{
    Metrics m;
    m.config = "ltp-NU-iq32-rf96";
    m.workload = "graph_walk";
    m.insts = 12345;
    m.cycles = 23456;
    m.ipc = 0.52630364;
    m.cpi = 1.9000729;
    m.avgOutstanding = 3.25;
    m.dramReads = 321;
    m.iqOcc = 29.5;
    m.parked = 77;
    m.parkedFrac = 0.125;
    m.energy.iq = 0.1;
    m.energy.rf = 0.2;
    m.energy.ltp = 0.3;
    m.ed2p = 1e-9;
    m.weightedSpeedup = 1.5;
    ThreadMetrics a, b;
    a.workload = "graph_walk";
    a.ipc = 0.25;
    b.workload = "paper_loop";
    b.insts = 100;
    m.threads = {a, b};
    m.sampling.samples = 2;
    m.sampling.detail = 5000;
    m.sampling.meanIpc = 0.5;
    m.sampling.ipcStdDev = 0.01;
    m.sampling.ci95Half = 0.02;
    m.sampling.sampleIpcs = {0.49, 0.51};
    return m;
}

std::string
runFrame()
{
    JsonValue frame = parseJson(
        R"({"id":7,"type":"run","workload":"graph_walk",)"
        R"("lengths":{"funcWarm":2000,"pipeWarm":400,"detail":1000},)"
        R"("sampling":{"fastForward":1,"warmup":2,"detail":3,)"
        R"("samples":4}})");
    SimConfig cfg = SimConfig::limitStudy(LtpMode::NRNU);
    cfg.name = "q\"b\\n";
    frame.object["config"] = configTree(cfg);
    return writeJsonCompact(frame);
}

std::string
resultFrame()
{
    JsonValue frame = parseJson(
        R"({"id":7,"type":"result","hit":true,"deduped":false})");
    frame.object["metrics"] = metricsTree(richMetrics());
    return writeJsonCompact(frame);
}

TEST(MutationFuzz, RunFramesRejectCleanlyOrRoundTrip)
{
    std::string seed = runFrame();
    JsonValue tree = parseJson(seed);
    Rng rng(kSeed);
    int configs = 0;
    for (int i = 0; i < kMutationsPerCorpus; ++i) {
        Mutation kind;
        std::string text = mutate(seed, tree, rng, &kind);
        JsonValue frame;
        if (!parsesAndRoundTrips(text, &frame))
            continue;
        const JsonValue *cfgv = member(frame, "config");
        if (!cfgv)
            continue;
        SimConfig cfg;
        try {
            cfg = configFromJson(*cfgv);
        } catch (const std::runtime_error &) {
            continue;
        }
        configs += 1;
        std::string canon = writeJsonCompact(configTree(cfg));
        EXPECT_EQ(writeJsonCompact(configTree(configFromJson(configTree(cfg)))),
                  canon)
            << text;
    }
    EXPECT_GT(configs, 0);
}

TEST(MutationFuzz, ResultFramesRejectCleanlyOrRoundTrip)
{
    std::string seed = resultFrame();
    JsonValue tree = parseJson(seed);
    Rng rng(kSeed + 1);
    int read = 0;
    for (int i = 0; i < kMutationsPerCorpus; ++i) {
        Mutation kind;
        std::string text = mutate(seed, tree, rng, &kind);
        JsonValue frame;
        if (!parsesAndRoundTrips(text, &frame))
            continue;
        const JsonValue *mv = member(frame, "metrics");
        if (!mv)
            continue;
        Metrics m;
        try {
            m = metricsFromJson(*mv);
        } catch (const std::runtime_error &) {
            continue;
        }
        read += 1;
        EXPECT_EQ(metricsToJson(metricsFromJson(metricsTree(m))),
                  metricsToJson(m))
            << text;
    }
    EXPECT_GT(read, 0);
}

TEST(MutationFuzz, CacheEntriesMissOrReadExactly)
{
    std::string dir =
        (std::filesystem::temp_directory_path() /
         ("ltp_fuzz_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    ResultCache cache(dir);
    SimConfig cfg = SimConfig::ltpProposal(LtpMode::NU);
    RunLengths lengths;
    CellKey key = cellKeyFor(cfg, "graph_walk", lengths);
    Metrics stored = richMetrics();
    cache.store(key, cfg, lengths, stored);
    std::string path = dir + "/" + key.hex.substr(0, 2) + "/" +
                       key.hex.substr(2, 2) + "/" + key.hex + ".json";
    std::string seed;
    {
        std::ifstream in(path, std::ios::binary);
        seed.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(seed.empty());
    JsonValue tree = parseJson(seed);
    std::string want = metricsToJson(stored);
    Metrics got;
    ASSERT_TRUE(cache.lookup(key, &got));
    ASSERT_EQ(metricsToJson(got), want);

    Rng rng(kSeed + 2);
    int hits = 0;
    for (int i = 0; i < kMutationsPerCorpus; ++i) {
        Mutation kind;
        std::string text = mutate(seed, tree, rng, &kind);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << text;
        }
        if (!cache.lookup(key, &got))
            continue;
        hits += 1;
        EXPECT_EQ(metricsToJson(got), want) << text;
    }
    // Only a mutation that leaves the bytes as they were can hit.
    EXPECT_LT(hits, kMutationsPerCorpus / 50);
    std::filesystem::remove_all(dir);
}

/** A real checkpoint of a small machine, about 1.5 KB, so that most
 *  mutations land in a header, count or geometry field. */
std::string
smallCheckpoint()
{
    SimConfig cfg = SimConfig::baseline();
    cfg.core.bpTableBits = 4;
    cfg.core.btbEntries = 4;
    for (CacheConfig *c :
         {&cfg.mem.l1i, &cfg.mem.l1d, &cfg.mem.l2, &cfg.mem.l3}) {
        c->sizeKB = 1;
        c->assoc = 4;
    }
    MemSystem mem(cfg.mem);
    FastForward ff(cfg, {"graph_walk"}, mem);
    ff.advanceTo(4000);
    Checkpoint ckpt = captureCheckpoint(ff, mem, "graph_walk", cfg.seed);
    ckpt.prefetcher.resize(4);
    return checkpointToBytes(ckpt);
}

/** One binary mutant of @p seed: a bit flip, a random byte, a
 *  truncation, an inserted byte, or a little-endian u32 overwritten
 *  with a value at a decoder bound. */
std::string
mutateBytes(const std::string &seed, Rng &rng)
{
    static const std::uint32_t kEdges[] = {
        0, 1, 3, 4, 7, 8, 28, 29, 64, 65, 256, 257, 0xffff,
        1u << 20, (1u << 20) + 1, 1u << 22, (1u << 22) + 1, 1u << 24,
        0x7fffffff, 0xffffffff};
    std::string s = seed;
    std::size_t at = rng.below(s.size());
    switch (rng.below(5)) {
      case 0:
        s[at] = char(s[at] ^ char(1u << rng.below(8)));
        break;
      case 1:
        s[at] = char(rng.below(256));
        break;
      case 2:
        s.resize(at);
        break;
      case 3:
        s.insert(at, 1, char(rng.below(256)));
        break;
      default: {
        std::uint32_t v = kEdges[rng.below(std::size(kEdges))];
        for (std::size_t b = 0; b < 4 && at + b < s.size(); ++b)
            s[at + b] = char(v >> (8 * b));
      }
    }
    return s;
}

TEST(MutationFuzz, CheckpointsRejectCleanlyOrRoundTrip)
{
    // CheckpointTest.CorruptionIsRejected's matrix, on a small image.
    std::string good = smallCheckpoint();
    ASSERT_NO_THROW((void)checkpointFromBytes(good));
    std::vector<std::string> corpus = {good, good, good, good + "x"};
    corpus[1][0] ^= 0x5a; // bad magic
    corpus[2][8] = 99;    // unsupported version
    corpus[3][good.size() / 2] ^= 0x01; // flipped payload byte
    for (std::size_t keep : {std::size_t(10), good.size() / 2,
                             good.size() - 1})
        corpus.push_back(good.substr(0, keep));

    Rng rng(kSeed + 3);
    int accepted = 0;
    for (const std::string &seed : corpus) {
        for (int i = 0; i < kMutationsPerCorpus; ++i) {
            std::string text = mutateBytes(seed, rng);
            if (text.size() >= 4) {
                // Re-seal, so that the mutation reaches the decoder.
                text.resize(text.size() - 4);
                putU32le(text, crc32(text));
            }
            Checkpoint ckpt;
            try {
                ckpt = checkpointFromBytes(text);
            } catch (const std::runtime_error &) {
                continue;
            }
            accepted += 1;
            std::string again = checkpointToBytes(ckpt);
            EXPECT_TRUE(again == text)
                << "an accepted mutant re-encodes differently from byte "
                << std::mismatch(again.begin(), again.end(), text.begin(),
                                 text.end())
                           .first -
                       again.begin();
        }
    }
    EXPECT_GT(accepted, 0);
}

/** A small recorded trace: 48 graph_walk records, so that most
 *  mutations land in the header or in a record's fields. */
std::string
smallTrace()
{
    TraceInfo info;
    info.kernel = "graph_walk";
    info.funcWarm = 100;
    info.pipeWarm = 10;
    info.detail = 20;
    WorkloadPtr w = makeKernel(info.kernel);
    w->reset(info.seed);
    TraceWriter writer(info);
    for (int i = 0; i < 48; ++i)
        writer.append(w->next());
    return writer.finish();
}

TEST(MutationFuzz, TracesRejectCleanlyOrRoundTrip)
{
    // TraceRoundTripProp.CorruptionIsRejected's matrix, re-sealed so
    // that the mutation reaches the record checks.
    std::string good = smallTrace();
    ASSERT_NO_THROW((void)TraceReader(good));
    std::vector<std::string> corpus = {good, good, good, good + "x"};
    corpus[1][0] ^= 0x5a; // bad magic
    corpus[2][8] = 99;    // unsupported version
    corpus[3][good.size() / 2] ^= 0x01; // flipped payload byte
    for (std::size_t keep : {std::size_t(10), good.size() / 2,
                             good.size() - 1})
        corpus.push_back(good.substr(0, keep));

    Rng rng(kSeed + 4);
    int accepted = 0;
    for (const std::string &seed : corpus) {
        for (int i = 0; i < kMutationsPerCorpus; ++i) {
            std::string text = mutateBytes(seed, rng);
            if (text.size() >= 4) {
                text.resize(text.size() - 4);
                putU32le(text, crc32(text));
            }
            std::unique_ptr<TraceReader> reader;
            try {
                reader = std::make_unique<TraceReader>(text);
            } catch (const std::runtime_error &) {
                continue;
            }
            accepted += 1;
            TraceWriter again(reader->info());
            for (std::uint64_t r = 0; r < reader->info().count; ++r)
                again.append(reader->record(r));
            std::string bytes = again.finish();
            EXPECT_TRUE(bytes == text)
                << "an accepted mutant re-encodes differently from byte "
                << std::mismatch(bytes.begin(), bytes.end(), text.begin(),
                                 text.end())
                           .first -
                       bytes.begin();
        }
    }
    EXPECT_GT(accepted, 0);
}

/** Answers every cell at once with a Metrics made from its names, so a
 *  panels scenario classifies without simulating: kernels with an even
 *  name length read as MLP-sensitive. */
class StubBackend : public ExecBackend
{
  public:
    std::string name() const override { return "stub"; }

    CellResult
    runCell(const CellKey &, const SimConfig &cfg,
            const std::string &workload, const RunLengths &,
            const SamplePlan &) override
    {
        bool gain = workload.size() % 2 == 0 && cfg.core.iqSize >= 256;
        CellResult r;
        r.metrics.config = cfg.name;
        r.metrics.workload = workload;
        r.metrics.ipc = gain ? 2.0 : 1.0;
        r.metrics.avgOutstanding = gain ? 4.0 : 1.0;
        r.metrics.avgLoadLatency = 100.0;
        return r;
    }
};

/** The exported form of an accepted scenario: its compiled spec as an
 *  explicit-jobs file. */
std::string
compiledText(const Scenario &sc, const ExecBackendPtr &stub)
{
    return sweepSpecToJson(sc.compile(1, stub));
}

TEST(MutationFuzz, ScenariosRejectCleanlyOrRoundTrip)
{
    // A parsed scenario either throws std::runtime_error (at parse or
    // at compile) or compiles to a spec whose exported explicit-jobs
    // file parses and compiles back to the same file.
    // The corpus: three scenario files (panels, SMT pairs, set/name
    // overrides) and one small file with every other block: sampling,
    // groups, a nested set and a sweep with a baseline.
    std::vector<std::string> corpus = {
        R"({"name":"fuzz","seed":3,)"
        R"("lengths":{"funcWarm":2000,"pipeWarm":400,"detail":1000},)"
        R"("sampling":{"fastForward":5000,"warmup":200,"detail":500,)"
        R"("samples":2},"workloads":{"groups":{"mix":["graph_walk",)"
        R"("paper_loop"],"one":["dense_compute"]}},"configs":[)"
        R"({"series":"No LTP","preset":"limitStudy","mode":"off"},)"
        R"({"series":"NU","preset":"ltpProposal","mode":"NU","name":"nu",)"
        R"("set":{"core.rob":128,"mem":{"l2":{"sizeKB":512}}}}],)"
        R"("sweep":{"path":"core.iq","values":["inf",32],)"
        R"("baseline":{"series":"No LTP","value":32}},)"
        R"("views":["perf","ipc"]})"};
    for (const char *file :
         {"table1_compare", "smt_pairs", "fig23_example"}) {
        std::ifstream in(std::string(LTP_SCENARIO_DIR) + "/" + file +
                         ".json");
        corpus.emplace_back(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>());
    }

    // An accepted mutant compiles twice, so each seed gets a quarter of
    // the usual mutations (about 1.5 s under ASan/UBSan).
    auto stub = std::make_shared<StubBackend>();
    Rng rng(kSeed + 5);
    int accepted = 0;
    for (const std::string &seed : corpus) {
        JsonValue tree = parseJson(seed);
        ASSERT_NO_THROW((void)compiledText(scenarioFromJson(seed), stub));
        for (int i = 0; i < kMutationsPerCorpus / 4; ++i) {
            Mutation kind;
            std::string text = mutate(seed, tree, rng, &kind);
            std::string exported;
            try {
                exported = compiledText(scenarioFromJson(text), stub);
            } catch (const std::runtime_error &) {
                continue;
            }
            accepted += 1;
            std::string again;
            try {
                again = compiledText(scenarioFromJson(exported), stub);
            } catch (const std::runtime_error &e) {
                ADD_FAILURE() << "the export of an accepted mutant is "
                                 "rejected: "
                              << e.what() << "\n"
                              << text;
                continue;
            }
            EXPECT_EQ(again, exported) << text;
        }
    }
    EXPECT_GT(accepted, 0);
}

} // namespace
} // namespace ltp
