/**
 * @file
 * Little-endian binary I/O helpers shared by every binary format
 * (the sealed container of common/file_io.hh, and the `.lttr` and
 * `.ltcp` bodies inside it): byte-string appenders, a bounds-checked
 * reader, and CRC-32.
 *
 * Everything is explicitly little-endian so the files are portable
 * across hosts; the appenders and reader never reinterpret memory, so
 * they are also alignment- and strict-aliasing-safe.
 */

#ifndef LTP_COMMON_BINIO_HH
#define LTP_COMMON_BINIO_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace ltp {

/// @name Little-endian appenders onto a byte string
/// @{
inline void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

inline void
putU16le(std::string &out, std::uint16_t v)
{
    putU8(out, static_cast<std::uint8_t>(v));
    putU8(out, static_cast<std::uint8_t>(v >> 8));
}

inline void
putU32le(std::string &out, std::uint32_t v)
{
    putU16le(out, static_cast<std::uint16_t>(v));
    putU16le(out, static_cast<std::uint16_t>(v >> 16));
}

inline void
putU64le(std::string &out, std::uint64_t v)
{
    putU32le(out, static_cast<std::uint32_t>(v));
    putU32le(out, static_cast<std::uint32_t>(v >> 32));
}
/// @}

/**
 * Bounds-checked little-endian reader over [offset, end) of an
 * in-memory byte buffer, which must outlive it (the mmap-style access
 * pattern: the whole file is resident, records are decoded in place on
 * demand).  @p end bounds it to one region, such as a sealed body.
 *
 * @throws std::runtime_error on any read past the end bound.
 */
class ByteReader
{
  public:
    explicit ByteReader(const std::string &bytes, std::size_t offset = 0,
                        std::size_t end = std::string::npos)
        : data_(bytes.data()),
          end_(end < bytes.size() ? end : bytes.size()), off_(offset)
    {
    }

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();

    /** Read @p n raw bytes. */
    std::string raw(std::size_t n);

    /** Skip @p n bytes (bounds-checked like a read). */
    void skip(std::size_t n);

    std::size_t offset() const { return off_; }

    std::size_t
    remaining() const
    {
        return off_ > end_ ? 0 : end_ - off_;
    }

  private:
    /** Check that @p n more bytes exist; throws otherwise. */
    void need(std::size_t n) const;

    const char *data_;
    std::size_t end_;
    std::size_t off_;
};

/** Incremental CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). */
class Crc32
{
  public:
    void update(const void *data, std::size_t n);
    void update(const std::string &bytes)
    {
        update(bytes.data(), bytes.size());
    }

    /** Finalized checksum of everything seen so far. */
    std::uint32_t value() const { return state_ ^ 0xffffffffu; }

  private:
    std::uint32_t state_ = 0xffffffffu;
};

/** One-shot CRC-32 of @p bytes. */
std::uint32_t crc32(const std::string &bytes);

} // namespace ltp

#endif // LTP_COMMON_BINIO_HH
