/**
 * @file
 * Tests for the file layer (common/file_io.hh): pinned encodings of
 * both sealed formats (`.lttr`, `.ltcp`), one container-defect table
 * run against both, the content CRC, and the whole-file reader and
 * atomic writer.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/binio.hh"
#include "common/file_io.hh"
#include "common/sha256.hh"
#include "sample/checkpoint.hh"
#include "trace/trace_file.hh"

namespace ltp {
namespace {

namespace fs = std::filesystem;

/** A fixed `.lttr` image from hand-built records (no kernel stream,
 *  so only a layout change can move its bytes). */
std::string
pinnedTrace()
{
    TraceInfo info;
    info.kernel = "pinned";
    info.seed = 7;
    info.funcWarm = 11;
    info.pipeWarm = 22;
    info.detail = 33;
    TraceWriter w(info);
    MicroOp load;
    load.pc = 0x400000;
    load.opc = OpClass::Load;
    load.dst = RegId(RegClass::Int, 3);
    load.srcs[0] = RegId(RegClass::Int, 1);
    load.effAddr = 0x10008;
    load.memSize = 8;
    w.append(load);
    MicroOp branch;
    branch.pc = 0x400004;
    branch.opc = OpClass::Branch;
    branch.srcs[0] = RegId(RegClass::Int, 3);
    branch.taken = true;
    branch.target = 0x400000;
    w.append(branch);
    MicroOp fp;
    fp.pc = 0x400008;
    fp.opc = OpClass::FpAlu;
    fp.dst = RegId(RegClass::Fp, 31);
    fp.srcs[0] = RegId(RegClass::Fp, 0);
    fp.srcs[1] = RegId(RegClass::Fp, 30);
    w.append(fp);
    return w.finish();
}

/** A fixed `.ltcp` image from a hand-built Checkpoint. */
std::string
pinnedCheckpoint()
{
    Checkpoint k;
    k.workload = "pinned";
    k.seed = 7;
    ThreadImage t;
    t.position = 123456789;
    t.bpred.tableBits = 2;
    t.bpred.history = 0x5;
    t.bpred.counters = {0, 1, 2, 3};
    t.bpred.btb = {{0x10, 0x20, true}, {0, 0, false}};
    k.threads = {t};
    auto cache = [](std::uint32_t sets, std::uint64_t stamp) {
        CacheImage img;
        img.numSets = sets;
        img.assoc = 2;
        img.useStamp = stamp;
        for (std::uint32_t i = 0; i < sets * 2; ++i) {
            Cache::Line l;
            l.valid = i % 2 == 0;
            l.dirty = i % 3 == 0;
            l.prefetched = i % 4 == 0;
            l.tag = 0x1000 + i;
            l.lastUse = stamp - i;
            img.lines.push_back(l);
        }
        return img;
    };
    k.l1i = cache(1, 10);
    k.l1d = cache(2, 20);
    k.l2 = cache(2, 30);
    k.l3 = cache(4, 40);
    StridePrefetcher::Entry e;
    e.pc = 0x400010;
    e.lastAddr = 0x20000;
    e.stride = -64;
    e.confidence = 3;
    e.valid = true;
    k.prefetcher = {e, StridePrefetcher::Entry{}};
    return checkpointToBytes(k);
}

// The digests were taken from the encoders before both formats moved
// onto the shared container: the move changed no byte.
TEST(SealedLayout, TraceEncodingIsPinned)
{
    std::string image = pinnedTrace();
    EXPECT_EQ(image.size(), 173u);
    EXPECT_EQ(sha256Hex(image),
              "6fadaf4bc5d074a4fbf026ef34b48041"
              "dacd9b66dd4d81a28cd8836596bbe142");
    EXPECT_EQ(TraceReader(image).bytes(), image);
}

TEST(SealedLayout, CheckpointEncodingIsPinned)
{
    std::string image = pinnedCheckpoint();
    EXPECT_EQ(image.size(), 538u);
    EXPECT_EQ(sha256Hex(image),
              "79f6d720cf12ea9ac6043dd9cb0d0873"
              "818497ed1e6d7f490026c92a6e368809");
    EXPECT_EQ(checkpointToBytes(checkpointFromBytes(image)), image);
}

/** Recompute the footer so only the defect under test can reject. */
std::string
resealed(std::string image)
{
    image.resize(image.size() - 4);
    putU32le(image, crc32(image));
    return image;
}

struct Format
{
    const char *prefix; ///< what the reader names in its errors
    std::string image;
    std::function<void(const std::string &)> decode;
};

struct Defect
{
    const char *name;
    std::function<std::string(std::string)> apply;
    const char *message; ///< substring the error must carry
};

TEST(SealedContainer, EveryDefectIsRejectedInBothFormats)
{
    const std::vector<Format> formats = {
        {"trace: ", pinnedTrace(),
         [](const std::string &b) { (void)TraceReader(b); }},
        {"checkpoint: ", pinnedCheckpoint(),
         [](const std::string &b) { (void)checkpointFromBytes(b); }},
    };
    const std::vector<Defect> defects = {
        {"bad magic",
         [](std::string s) {
             s[0] ^= 0x5a;
             return resealed(s);
         },
         "bad magic"},
        {"wrong version",
         [](std::string s) {
             s[8] = char(s[8] + 1);
             return resealed(s);
         },
         "unsupported version"},
        {"nonzero reserved word",
         [](std::string s) {
             s[12] = 1;
             return resealed(s);
         },
         "nonzero reserved"},
        {"CRC mismatch",
         [](std::string s) {
             s.replace(16, 1, 1, char(s[16] ^ 0x01));
             return s;
         },
         "CRC mismatch"},
        {"frame shorter than the container",
         [](std::string s) { return s.substr(0, 19); }, "truncated"},
        {"clipped footer",
         [](std::string s) { return s.substr(0, s.size() - 1); },
         "CRC mismatch"},
    };
    for (const Format &f : formats) {
        ASSERT_NO_THROW(f.decode(f.image)) << f.prefix;
        for (const Defect &d : defects) {
            SCOPED_TRACE(std::string(f.prefix) + d.name);
            try {
                f.decode(d.apply(f.image));
                ADD_FAILURE() << "accepted";
            } catch (const std::runtime_error &e) {
                std::string what = e.what();
                EXPECT_EQ(what.rfind(f.prefix, 0), 0u) << what;
                EXPECT_NE(what.find(d.message), std::string::npos)
                    << what;
            }
        }
    }
}

TEST(SealedContainer, ContentCrcIsTheFooterNotTheResidue)
{
    const char magic[8] = {'T', 'E', 'S', 'T', 'S', 'E', 'A', 'L'};
    std::string a = seal(magic, 3, "body a");
    std::string b = seal(magic, 3, "body b");
    EXPECT_EQ(sealedCrc(a), crc32(a.substr(0, a.size() - 4)));
    EXPECT_NE(sealedCrc(a), sealedCrc(b));
    // A CRC over a whole sealed image is one constant for every
    // image: it can never tell two images apart.
    EXPECT_EQ(crc32(a), crc32(b));
    EXPECT_EQ(crc32(pinnedTrace()), crc32(pinnedCheckpoint()));

    ByteReader body = openSealed(a, magic, 3, "test");
    EXPECT_EQ(body.offset(), 16u);
    EXPECT_EQ(body.remaining(), 6u);
    EXPECT_EQ(body.raw(6), "body a");
    EXPECT_THROW((void)body.u8(), std::runtime_error); // not the footer
}

class FileLayerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("ltp_file_io_test_" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    /** Names in the scratch directory. */
    std::vector<std::string>
    entries() const
    {
        std::vector<std::string> out;
        for (const auto &e : fs::directory_iterator(dir_))
            out.push_back(e.path().filename().string());
        return out;
    }

    std::string dir_;
};

/** @p fn's runtime_error message (empty when it does not throw). */
std::string
errorOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST_F(FileLayerTest, MissingPathAndDirectoryNameThePath)
{
    std::string missing = dir_ + "/missing.ltcp";
    std::string err = errorOf([&] { (void)readFile(missing); });
    EXPECT_NE(err.find(missing), std::string::npos) << err;
    EXPECT_NE(err.find("No such file"), std::string::npos) << err;

    // A directory opens like a file; reading it must fail with the
    // OS error, not decode as an empty file.
    err = errorOf([&] { (void)readFile(dir_); });
    EXPECT_NE(err.find(dir_), std::string::npos) << err;
    EXPECT_NE(err.find("directory"), std::string::npos) << err;
    for (const auto &load :
         {std::function<void()>([&] { (void)loadTraceFile(dir_); }),
          std::function<void()>([&] { (void)loadCheckpointFile(dir_); })}) {
        err = errorOf(load);
        EXPECT_NE(err.find("directory"), std::string::npos) << err;
        EXPECT_EQ(err.find("truncated"), std::string::npos) << err;
    }

    std::string out = "stale";
    EXPECT_FALSE(tryReadFile(missing, &out));
    EXPECT_FALSE(tryReadFile(dir_, &out));
}

TEST_F(FileLayerTest, OverwriteIsAtomicAndLeavesNoTempFile)
{
    std::string path = dir_ + "/entry.json";
    writeFileAtomic(path, "one");
    std::string linked = dir_ + "/linked.json";
    fs::create_hard_link(path, linked);

    std::string big(200000, 'x');
    writeFileAtomic(path, big);
    EXPECT_EQ(readFile(path), big);
    std::string out;
    ASSERT_TRUE(tryReadFile(path, &out));
    EXPECT_EQ(out, big);
    // The old file was replaced, never written in place: a hard link
    // to it still reads the old bytes.
    EXPECT_EQ(readFile(linked), "one");
    std::vector<std::string> names = entries();
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"entry.json", "linked.json"}));
}

TEST_F(FileLayerTest, FailedWriteNamesThePathAndLeavesNoTempFile)
{
    // No such directory: the temp file cannot be created.
    std::string orphan = dir_ + "/no/such/dir/file";
    std::string err = errorOf([&] { writeFileAtomic(orphan, "x"); });
    EXPECT_NE(err.find(orphan), std::string::npos) << err;

    // A directory in the way: the rename fails after the temp file
    // was written, and the temp file is removed.
    std::string blocker = dir_ + "/blocker";
    fs::create_directories(blocker + "/inside");
    err = errorOf([&] { writeFileAtomic(blocker, "x"); });
    EXPECT_NE(err.find(blocker), std::string::npos) << err;
    EXPECT_EQ(entries(), std::vector<std::string>{"blocker"});
}

} // namespace
} // namespace ltp
