#include "common/binio.hh"

#include <array>
#include <stdexcept>

namespace ltp {

void
ByteReader::need(std::size_t n) const
{
    // Guard off_ first: a construction offset past the end would make
    // the size_t subtraction wrap and defeat the bounds check.
    if (off_ > end_ || n > end_ - off_)
        throw std::runtime_error(
            "binio: read of " + std::to_string(n) + " bytes at offset " +
            std::to_string(off_) + " past end " + std::to_string(end_));
}

std::uint8_t
ByteReader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(data_[off_++]);
}

std::uint16_t
ByteReader::u16()
{
    std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (std::uint16_t(u8()) << 8));
}

std::uint32_t
ByteReader::u32()
{
    std::uint32_t lo = u16();
    return lo | (std::uint32_t(u16()) << 16);
}

std::uint64_t
ByteReader::u64()
{
    std::uint64_t lo = u32();
    return lo | (std::uint64_t(u32()) << 32);
}

std::string
ByteReader::raw(std::size_t n)
{
    need(n);
    std::string out(data_ + off_, n);
    off_ += n;
    return out;
}

void
ByteReader::skip(std::size_t n)
{
    need(n);
    off_ += n;
}

namespace {

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

void
Crc32::update(const void *data, std::size_t n)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = state_;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    state_ = c;
}

std::uint32_t
crc32(const std::string &bytes)
{
    Crc32 crc;
    crc.update(bytes);
    return crc.value();
}

} // namespace ltp
