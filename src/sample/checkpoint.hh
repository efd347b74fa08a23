/**
 * @file
 * Architectural checkpoints (`.ltcp`): everything a sampled run's
 * fast-forward phase accumulates — per-thread stream positions,
 * branch-predictor images, and the warmed memory image (cache tag
 * arrays + prefetcher table) — in a portable, CRC-checked binary
 * file, so a long fast-forward can be paid once and resumed from many
 * times (`ltp checkpoint create` / `ltp sample --from=<ckpt>`).
 *
 * On-disk layout: a sealed container (common/file_io.hh: magic
 * "LTPCKPT\0", u32 version 2, u32 reserved 0, body, u32 CRC-32 of
 * everything before it) whose body is (all integers little-endian):
 *
 *   u64          seed
 *   u16          workload name length, + that many bytes
 *   u32          numThreads
 *   per thread:
 *     u64        stream position (micro-ops consumed)
 *     bp image:  u32 tableBits, u64 history,
 *                u32 counterCount + counters (1B each, value <= 3),
 *                u32 btbCount x { u64 pc, u64 target, u8 valid }
 *   mem image:
 *     4 caches (l1i, l1d, l2, l3), each:
 *       u32 numSets, u32 assoc, u64 useStamp,
 *       lines x { u8 flags (valid|dirty<<1|prefetched<<2),
 *                 u64 tag, u64 lastUse }
 *     prefetcher: u32 entryCount x { u64 pc, u64 lastAddr,
 *                 i64 stride, u32 confidence, u8 valid }
 *
 * Transient timing state (in-flight fills, MSHRs, DRAM banks) is
 * deliberately *not* stored: the capture boundary is a settled
 * hierarchy, exactly the state a fresh detailed phase starts from.
 * Version 1 also stored 64 last-writer positions per thread, which no
 * detailed phase ever read; version-1 files are rejected.
 *
 * Readers reject — with a thrown std::runtime_error naming the defect
 * — every container defect (openSealed), trailing garbage, and
 * semantically invalid (CRC-valid but crafted) fields, mirroring the
 * `.lttr` trace reader's posture.
 */

#ifndef LTP_SAMPLE_CHECKPOINT_HH
#define LTP_SAMPLE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/branch_pred.hh"
#include "mem/cache.hh"
#include "mem/mem_system.hh"
#include "mem/prefetcher.hh"
#include "sample/fast_forward.hh"

namespace ltp {

/** Container magic ("LTPCKPT\0") and the version this build reads
 *  and writes. */
inline constexpr char kCheckpointMagic[8] = {'L', 'T', 'P', 'C',
                                            'K', 'P', 'T', '\0'};
inline constexpr std::uint32_t kCheckpointVersion = 2;

/** One cache level's architectural image. */
struct CacheImage
{
    std::uint32_t numSets = 0;
    std::uint32_t assoc = 0;
    std::uint64_t useStamp = 0;
    std::vector<Cache::Line> lines; ///< dataReady always 0 (settled)
};

/** Per-thread architectural state. */
struct ThreadImage
{
    std::uint64_t position = 0; ///< micro-ops consumed from the stream
    BranchPredictor::Image bpred;
};

/** A complete architectural checkpoint. */
struct Checkpoint
{
    std::string workload; ///< run workload name (kernel / trace / smt:)
    std::uint64_t seed = 0;
    std::vector<ThreadImage> threads;
    CacheImage l1i, l1d, l2, l3;
    std::vector<StridePrefetcher::Entry> prefetcher;
};

/// @name Serialization (byte-exact round trip)
/// @{

/** Encode @p ckpt into its sealed on-disk image. */
std::string checkpointToBytes(const Checkpoint &ckpt);

/**
 * Decode and fully validate a checkpoint image.
 * @throws std::runtime_error naming the first defect found.
 */
Checkpoint checkpointFromBytes(const std::string &bytes);

/** Load + decode; errors name @p path.  (Write an image with
 *  writeFileAtomic, common/file_io.hh.) */
Checkpoint loadCheckpointFile(const std::string &path);

/// @}

/// @name Capture / restore against a live fast-forward engine
/// @{

/**
 * Capture the architectural state of @p ff and @p mem (settled first,
 * so the cache images carry no in-flight timing).
 */
Checkpoint captureCheckpoint(const FastForward &ff, MemSystem &mem,
                             const std::string &workload,
                             std::uint64_t seed);

/** @p ff's per-thread images: positions and predictors. */
std::vector<ThreadImage> captureThreads(const FastForward &ff);

/**
 * Install @p ckpt into @p ff and @p mem: advances each thread's stream
 * to its stored position (O(1) for trace replays), restores predictor
 * images, and installs the memory image.
 * @throws std::runtime_error when the checkpoint's workload, seed, or
 *         geometry (threads, predictor tables, cache shapes) disagree
 *         with the run being restored into.
 */
void restoreCheckpoint(const Checkpoint &ckpt, FastForward &ff,
                       MemSystem &mem, const std::string &workload,
                       std::uint64_t seed);

/// @}

/** One-line human summary (`ltp checkpoint ls`). */
std::string checkpointSummary(const Checkpoint &ckpt);

} // namespace ltp

#endif // LTP_SAMPLE_CHECKPOINT_HH
