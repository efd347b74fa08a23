#include "sample/checkpoint.hh"

#include <stdexcept>

#include "common/binio.hh"
#include "common/file_io.hh"
#include "common/logging.hh"

namespace ltp {

namespace {

[[noreturn]] void
badCheckpoint(const std::string &what)
{
    throw std::runtime_error("checkpoint: " + what);
}

void
encodeCache(std::string &out, const CacheImage &img)
{
    putU32le(out, img.numSets);
    putU32le(out, img.assoc);
    putU64le(out, img.useStamp);
    for (const Cache::Line &line : img.lines) {
        std::uint8_t flags =
            std::uint8_t((line.valid ? 1 : 0) | (line.dirty ? 2 : 0) |
                         (line.prefetched ? 4 : 0));
        putU8(out, flags);
        putU64le(out, line.tag);
        putU64le(out, line.lastUse);
    }
}

CacheImage
decodeCache(ByteReader &in, const char *which)
{
    CacheImage img;
    img.numSets = in.u32();
    img.assoc = in.u32();
    img.useStamp = in.u64();
    if (img.numSets == 0 || img.numSets > (1u << 22))
        badCheckpoint(std::string(which) + " image has invalid set "
                      "count " + std::to_string(img.numSets));
    if (img.assoc == 0 || img.assoc > 64)
        badCheckpoint(std::string(which) + " image has invalid "
                      "associativity " + std::to_string(img.assoc));
    std::uint64_t count =
        std::uint64_t(img.numSets) * std::uint64_t(img.assoc);
    // 17 bytes a line: never reserve more lines than the file holds.
    if (count > in.remaining() / 17)
        badCheckpoint(std::string(which) + " image runs past the end of "
                      "the file");
    img.lines.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint8_t flags = in.u8();
        if (flags > 7)
            badCheckpoint(std::string(which) + " line " +
                          std::to_string(i) + " has invalid flags " +
                          std::to_string(flags));
        Cache::Line line;
        line.valid = (flags & 1) != 0;
        line.dirty = (flags & 2) != 0;
        line.prefetched = (flags & 4) != 0;
        line.tag = in.u64();
        line.dataReady = 0; // settled by construction
        line.lastUse = in.u64();
        img.lines.push_back(line);
    }
    return img;
}

CacheImage
snapshotCache(const Cache &cache)
{
    CacheImage img;
    img.numSets = std::uint32_t(cache.numSets());
    img.assoc = std::uint32_t(cache.assoc());
    img.useStamp = cache.useStamp();
    img.lines = cache.lines();
    return img;
}

void
restoreCache(Cache &cache, const CacheImage &img, const char *which)
{
    if (std::uint32_t(cache.numSets()) != img.numSets ||
        std::uint32_t(cache.assoc()) != img.assoc)
        badCheckpoint(strprintf(
            "%s geometry mismatch: checkpoint has %ux%u, this config "
            "has %dx%d (sets x ways)",
            which, img.numSets, img.assoc, cache.numSets(),
            cache.assoc()));
    cache.restoreLines(img.lines, img.useStamp);
}

} // namespace

std::string
checkpointToBytes(const Checkpoint &ckpt)
{
    std::string out;
    putU64le(out, ckpt.seed);
    if (ckpt.workload.size() > 0xffff)
        badCheckpoint("workload name too long to encode");
    putU16le(out, std::uint16_t(ckpt.workload.size()));
    out += ckpt.workload;
    putU32le(out, std::uint32_t(ckpt.threads.size()));
    for (const ThreadImage &t : ckpt.threads) {
        putU64le(out, t.position);
        putU32le(out, std::uint32_t(t.bpred.tableBits));
        putU64le(out, t.bpred.history);
        putU32le(out, std::uint32_t(t.bpred.counters.size()));
        for (std::uint8_t c : t.bpred.counters)
            putU8(out, c);
        putU32le(out, std::uint32_t(t.bpred.btb.size()));
        for (const BranchPredictor::BtbEntry &e : t.bpred.btb) {
            putU64le(out, e.pc);
            putU64le(out, e.target);
            putU8(out, e.valid ? 1 : 0);
        }
    }
    encodeCache(out, ckpt.l1i);
    encodeCache(out, ckpt.l1d);
    encodeCache(out, ckpt.l2);
    encodeCache(out, ckpt.l3);
    putU32le(out, std::uint32_t(ckpt.prefetcher.size()));
    for (const StridePrefetcher::Entry &e : ckpt.prefetcher) {
        putU64le(out, e.pc);
        putU64le(out, e.lastAddr);
        putU64le(out, std::uint64_t(e.stride));
        putU32le(out, std::uint32_t(e.confidence));
        putU8(out, e.valid ? 1 : 0);
    }
    return seal(kCheckpointMagic, kCheckpointVersion, out);
}

Checkpoint
checkpointFromBytes(const std::string &bytes)
{
    ByteReader in = openSealed(bytes, kCheckpointMagic,
                               kCheckpointVersion, "checkpoint");
    Checkpoint ckpt;
    ckpt.seed = in.u64();
    ckpt.workload = in.raw(in.u16());

    // The container gate above already rejects truncation and appended
    // garbage; parsing after it can still overrun on absurd (but
    // CRC-resealed) counts, which ByteReader turns into a thrown
    // bounds error.
    std::uint32_t threads = in.u32();
    if (threads == 0 || threads > 256)
        badCheckpoint("invalid thread count " + std::to_string(threads));
    {
        for (std::uint32_t tid = 0; tid < threads; ++tid) {
            ThreadImage t;
            t.position = in.u64();
            std::uint32_t table_bits = in.u32();
            if (table_bits == 0 || table_bits > 28)
                badCheckpoint("thread " + std::to_string(tid) +
                              " has invalid predictor table bits " +
                              std::to_string(table_bits));
            t.bpred.tableBits = int(table_bits);
            t.bpred.history = in.u64();
            std::uint32_t counters = in.u32();
            if (counters != (1u << table_bits))
                badCheckpoint(
                    "thread " + std::to_string(tid) + " counter count " +
                    std::to_string(counters) + " does not match 2^" +
                    std::to_string(table_bits));
            t.bpred.counters.reserve(counters);
            for (std::uint32_t i = 0; i < counters; ++i) {
                std::uint8_t c = in.u8();
                if (c > 3)
                    badCheckpoint("thread " + std::to_string(tid) +
                                  " counter " + std::to_string(i) +
                                  " out of 2-bit range (" +
                                  std::to_string(c) + ")");
                t.bpred.counters.push_back(c);
            }
            std::uint32_t btb = in.u32();
            if (btb > (1u << 24))
                badCheckpoint("thread " + std::to_string(tid) +
                              " has absurd BTB size " +
                              std::to_string(btb));
            t.bpred.btb.reserve(btb);
            for (std::uint32_t i = 0; i < btb; ++i) {
                BranchPredictor::BtbEntry e;
                e.pc = in.u64();
                e.target = in.u64();
                std::uint8_t valid = in.u8();
                if (valid > 1)
                    badCheckpoint("thread " + std::to_string(tid) +
                                  " BTB entry " + std::to_string(i) +
                                  " has invalid valid flag " +
                                  std::to_string(valid));
                e.valid = valid != 0;
                t.bpred.btb.push_back(e);
            }
            ckpt.threads.push_back(std::move(t));
        }
        ckpt.l1i = decodeCache(in, "l1i");
        ckpt.l1d = decodeCache(in, "l1d");
        ckpt.l2 = decodeCache(in, "l2");
        ckpt.l3 = decodeCache(in, "l3");
        std::uint32_t pf = in.u32();
        if (pf > (1u << 20))
            badCheckpoint("absurd prefetcher table size " +
                          std::to_string(pf));
        ckpt.prefetcher.reserve(pf);
        for (std::uint32_t i = 0; i < pf; ++i) {
            StridePrefetcher::Entry e;
            e.pc = in.u64();
            e.lastAddr = in.u64();
            e.stride = std::int64_t(in.u64());
            e.confidence = int(in.u32());
            std::uint8_t valid = in.u8();
            if (valid > 1)
                badCheckpoint("prefetcher entry " + std::to_string(i) +
                              " has invalid valid flag " +
                              std::to_string(valid));
            e.valid = valid != 0;
            ckpt.prefetcher.push_back(e);
        }
    }

    if (in.remaining() != 0)
        badCheckpoint("trailing garbage after the state records (" +
                      std::to_string(in.remaining()) + " bytes)");
    return ckpt;
}

Checkpoint
loadCheckpointFile(const std::string &path)
{
    std::string bytes = readFile(path);
    try {
        return checkpointFromBytes(bytes);
    } catch (const std::runtime_error &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

std::vector<ThreadImage>
captureThreads(const FastForward &ff)
{
    std::vector<ThreadImage> threads;
    for (int tid = 0; tid < ff.numThreads(); ++tid) {
        ThreadImage t;
        t.position = ff.consumed(tid);
        t.bpred = ff.branchPred(tid).image();
        threads.push_back(std::move(t));
    }
    return threads;
}

Checkpoint
captureCheckpoint(const FastForward &ff, MemSystem &mem,
                  const std::string &workload, std::uint64_t seed)
{
    // The capture boundary is a settled hierarchy — collapse any
    // in-flight fill timing before snapshotting the tag arrays.
    mem.settle();

    Checkpoint ckpt;
    ckpt.workload = workload;
    ckpt.seed = seed;
    ckpt.threads = captureThreads(ff);
    ckpt.l1i = snapshotCache(mem.l1i());
    ckpt.l1d = snapshotCache(mem.l1d());
    ckpt.l2 = snapshotCache(mem.l2());
    ckpt.l3 = snapshotCache(mem.l3());
    ckpt.prefetcher = mem.prefetcher().table();
    return ckpt;
}

void
restoreCheckpoint(const Checkpoint &ckpt, FastForward &ff,
                  MemSystem &mem, const std::string &workload,
                  std::uint64_t seed)
{
    if (ckpt.workload != workload)
        badCheckpoint("was taken for workload '" + ckpt.workload +
                      "', not '" + workload + "'");
    if (ckpt.seed != seed)
        badCheckpoint("was taken at seed " + std::to_string(ckpt.seed) +
                      ", not " + std::to_string(seed));
    if (int(ckpt.threads.size()) != ff.numThreads())
        badCheckpoint("has " + std::to_string(ckpt.threads.size()) +
                      " thread(s), this run has " +
                      std::to_string(ff.numThreads()));

    for (int tid = 0; tid < ff.numThreads(); ++tid) {
        const ThreadImage &t = ckpt.threads[std::size_t(tid)];
        const BranchPredictor::Image live =
            ff.branchPred(tid).image();
        if (live.tableBits != t.bpred.tableBits ||
            live.btb.size() != t.bpred.btb.size())
            badCheckpoint(strprintf(
                "thread %d predictor geometry mismatch: checkpoint has "
                "%d table bits / %zu BTB entries, this config has "
                "%d / %zu",
                tid, t.bpred.tableBits, t.bpred.btb.size(),
                live.tableBits, live.btb.size()));
        std::uint64_t consumed = ff.consumed(tid);
        if (consumed > t.position)
            badCheckpoint(strprintf(
                "thread %d stream is already at position %llu, past "
                "the checkpoint's %llu (restore requires fresh "
                "streams)",
                tid, (unsigned long long)consumed,
                (unsigned long long)t.position));
        ff.skip(tid, t.position - consumed);
        ff.branchPred(tid).restore(t.bpred);
    }

    restoreCache(mem.l1i(), ckpt.l1i, "l1i");
    restoreCache(mem.l1d(), ckpt.l1d, "l1d");
    restoreCache(mem.l2(), ckpt.l2, "l2");
    restoreCache(mem.l3(), ckpt.l3, "l3");
    if (ckpt.prefetcher.size() != mem.prefetcher().table().size())
        badCheckpoint(strprintf(
            "prefetcher table size mismatch: checkpoint has %zu "
            "entries, this config has %zu",
            ckpt.prefetcher.size(), mem.prefetcher().table().size()));
    mem.prefetcher().restoreTable(ckpt.prefetcher);
}

std::string
checkpointSummary(const Checkpoint &ckpt)
{
    auto validLines = [](const CacheImage &img) {
        std::size_t n = 0;
        for (const Cache::Line &line : img.lines)
            n += line.valid;
        return n;
    };
    std::size_t pf_live = 0;
    for (const StridePrefetcher::Entry &e : ckpt.prefetcher)
        pf_live += e.valid;

    std::string pos;
    for (const ThreadImage &t : ckpt.threads) {
        if (!pos.empty())
            pos += ",";
        pos += std::to_string(t.position);
    }
    return strprintf(
        "workload %s, seed %llu, %zu thread(s) @ position %s; "
        "bp 2^%d counters, %zu-entry BTB; valid lines "
        "l1i %zu/%zu l1d %zu/%zu l2 %zu/%zu l3 %zu/%zu; "
        "prefetcher %zu/%zu live",
        ckpt.workload.c_str(), (unsigned long long)ckpt.seed,
        ckpt.threads.size(), pos.c_str(),
        ckpt.threads.empty() ? 0 : ckpt.threads[0].bpred.tableBits,
        ckpt.threads.empty() ? std::size_t(0)
                             : ckpt.threads[0].bpred.btb.size(),
        validLines(ckpt.l1i), ckpt.l1i.lines.size(),
        validLines(ckpt.l1d), ckpt.l1d.lines.size(),
        validLines(ckpt.l2), ckpt.l2.lines.size(),
        validLines(ckpt.l3), ckpt.l3.lines.size(), pf_live,
        ckpt.prefetcher.size());
}

} // namespace ltp
