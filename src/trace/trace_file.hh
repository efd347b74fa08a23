/**
 * @file
 * The `.lttr` micro-op trace file format: a compact, versioned,
 * CRC-protected binary encoding of a recorded workload stream, so a
 * kernel is executed through the DSL front-end once and replayed many
 * times (sweeps, golden regression runs, CI determinism smoke).
 *
 * On-disk layout (all integers little-endian):
 *
 *   header   magic "LTPTRACE" (8 bytes)
 *            u32 version (currently 1)
 *            u32 reserved (0)
 *            u64 seed            — workload seed the stream was
 *                                  recorded with
 *            u64 funcWarm        — staging plan at record time, so
 *            u64 pipeWarm          `ltp replay` can reproduce the
 *            u64 detail            recording run exactly
 *            u64 recordCount
 *            u16 kernelNameLen + that many name bytes
 *   records  recordCount fixed 35-byte records:
 *            u64 pc, u64 effAddr, u64 target,
 *            u8 opClass, u8 memSize, u8 taken,
 *            u16 dst, u16 src0, u16 src1, u16 src2
 *            (each register is regClass << 8 | index; 0xff index =
 *             invalid/unused slot)
 *   footer   u32 CRC-32 (IEEE) over header + records
 *
 * The reader keeps the raw file bytes resident and decodes records in
 * place on demand (memory-mapped-style access), so replay costs no
 * up-front decode pass and no second copy of the stream.
 */

#ifndef LTP_TRACE_TRACE_FILE_HH
#define LTP_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <string>

#include "isa/microop.hh"

namespace ltp {

/** File magic, version, and fixed record size of the current format. */
inline constexpr char kTraceMagic[8] = {'L', 'T', 'P', 'T',
                                        'R', 'A', 'C', 'E'};
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::size_t kTraceRecordBytes = 35;

/**
 * Fetch-ahead slack recorded (and classified by the oracle) beyond the
 * staged instruction count: the front end can run this far past the
 * last committed instruction of the detail region.
 */
inline constexpr std::uint64_t kTraceFetchSlack = 16384;

/** Decoded `.lttr` header. */
struct TraceInfo
{
    std::uint32_t version = kTraceVersion;
    std::string kernel;       ///< source kernel name (Workload::name())
    std::uint64_t seed = 1;   ///< workload seed at record time
    std::uint64_t funcWarm = 0; ///< staging plan at record time
    std::uint64_t pipeWarm = 0;
    std::uint64_t detail = 0;
    std::uint64_t count = 0;  ///< number of records

    /** Instructions to record for this staging plan (incl. slack). */
    std::uint64_t
    recordLength() const
    {
        return funcWarm + pipeWarm + detail + kTraceFetchSlack;
    }
};

/** Streaming `.lttr` encoder: construct, append(), finish(). */
class TraceWriter
{
  public:
    /** @p info.count is ignored; the appended count is written. */
    explicit TraceWriter(const TraceInfo &info);

    void append(const MicroOp &op);

    std::uint64_t count() const { return count_; }

    /** Assemble header + records + CRC footer. */
    std::string finish() const;

  private:
    TraceInfo info_;
    std::string records_;
    std::uint64_t count_ = 0;
};

/**
 * Validated `.lttr` view over an in-memory file image.  Construction
 * checks magic, version, the reserved field, structural sizes, the CRC
 * footer, and every record's enum-like fields (op class, taken flag,
 * register class/index), so a reader that constructs can be replayed
 * without further checking, and re-encodes to exactly its bytes.
 *
 * @throws std::runtime_error naming the defect on malformed input.
 */
class TraceReader
{
  public:
    /** Parse and validate a whole-file byte image. */
    explicit TraceReader(std::string bytes);

    const TraceInfo &info() const { return info_; }

    /** Decode record @p i; panics when out of range (caller checks). */
    MicroOp record(std::uint64_t i) const;

    /** The raw validated file image (byte-identity tests). */
    const std::string &bytes() const { return bytes_; }

  private:
    std::string bytes_;
    TraceInfo info_;
    std::size_t recordsOff_ = 0; ///< byte offset of record 0
};

/** Read @p path and validate it; errors are prefixed with the path. */
TraceReader loadTraceFile(const std::string &path);

/** Write an encoded trace image to @p path (binary-safe).
 *  @throws std::runtime_error when the file cannot be written. */
void writeTraceFile(const std::string &path, const std::string &bytes);

/**
 * Execute @p kernel through the DSL front-end and encode the stream the
 * staging plan in @p info can reach (recordLength() micro-ops).
 * @p info.kernel/seed/staging describe the recording; count is derived.
 * @throws std::runtime_error on unknown kernels.
 */
std::string recordTrace(const TraceInfo &info);

} // namespace ltp

#endif // LTP_TRACE_TRACE_FILE_HH
