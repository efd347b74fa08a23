#include "trace/trace_file.hh"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/binio.hh"
#include "common/logging.hh"
#include "trace/suite.hh"

namespace ltp {

namespace {

[[noreturn]] void
badTrace(const std::string &what)
{
    throw std::runtime_error("trace: " + what);
}

/** Register <-> u16 wire form: regClass << 8 | index. */
std::uint16_t
packReg(const RegId &r)
{
    return static_cast<std::uint16_t>((std::uint16_t(r.cls) << 8) |
                                      r.idx);
}

RegId
unpackReg(std::uint16_t wire)
{
    RegId r;
    r.cls = static_cast<std::uint8_t>(wire >> 8);
    r.idx = static_cast<std::uint8_t>(wire & 0xffu);
    return r;
}

std::string
encodeHeader(const TraceInfo &info, std::uint64_t count)
{
    std::string out;
    out.append(kTraceMagic, sizeof(kTraceMagic));
    putU32le(out, info.version);
    putU32le(out, 0); // reserved
    putU64le(out, info.seed);
    putU64le(out, info.funcWarm);
    putU64le(out, info.pipeWarm);
    putU64le(out, info.detail);
    putU64le(out, count);
    if (info.kernel.size() > 0xffff)
        badTrace("kernel name too long to encode");
    putU16le(out, static_cast<std::uint16_t>(info.kernel.size()));
    out += info.kernel;
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------------

TraceWriter::TraceWriter(const TraceInfo &info) : info_(info) {}

void
TraceWriter::append(const MicroOp &op)
{
    putU64le(records_, op.pc);
    putU64le(records_, op.effAddr);
    putU64le(records_, op.target);
    putU8(records_, static_cast<std::uint8_t>(op.opc));
    putU8(records_, op.memSize);
    putU8(records_, op.taken ? 1 : 0);
    putU16le(records_, packReg(op.dst));
    for (const RegId &src : op.srcs)
        putU16le(records_, packReg(src));
    count_ += 1;
}

std::string
TraceWriter::finish() const
{
    std::string out = encodeHeader(info_, count_);
    out += records_;
    putU32le(out, crc32(out));
    return out;
}

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TraceReader::TraceReader(std::string bytes) : bytes_(std::move(bytes))
{
    // Fixed header prefix + name length field + CRC footer.
    constexpr std::size_t min_size = 8 + 4 + 4 + 5 * 8 + 2 + 4;
    if (bytes_.size() < min_size)
        badTrace("truncated file (" + std::to_string(bytes_.size()) +
                 " bytes, header alone needs " +
                 std::to_string(min_size) + ")");

    ByteReader in(bytes_);
    if (std::memcmp(in.raw(sizeof(kTraceMagic)).data(), kTraceMagic,
                    sizeof(kTraceMagic)) != 0)
        badTrace("bad magic (not a .lttr trace file)");
    info_.version = in.u32();
    if (info_.version != kTraceVersion)
        badTrace("unsupported version " + std::to_string(info_.version) +
                 " (this build reads version " +
                 std::to_string(kTraceVersion) + ")");
    if (in.u32() != 0)
        badTrace("nonzero reserved header field");
    info_.seed = in.u64();
    info_.funcWarm = in.u64();
    info_.pipeWarm = in.u64();
    info_.detail = in.u64();
    info_.count = in.u64();
    std::uint16_t name_len = in.u16();
    if (in.remaining() < name_len + 4u)
        badTrace("truncated file inside the kernel name");
    info_.kernel = in.raw(name_len);
    recordsOff_ = in.offset();

    // Divide instead of multiplying the (untrusted) count so an absurd
    // header value cannot wrap the size check mod 2^64.
    std::size_t payload = bytes_.size() - recordsOff_ - 4;
    if (payload % kTraceRecordBytes != 0 ||
        info_.count != payload / kTraceRecordBytes)
        badTrace("size mismatch: header promises " +
                 std::to_string(info_.count) + " records, file has " +
                 std::to_string(payload) + " payload bytes (" +
                 std::to_string(payload / kTraceRecordBytes) +
                 " records)");

    std::uint32_t stored =
        ByteReader(bytes_, bytes_.size() - 4).u32();
    Crc32 crc;
    crc.update(bytes_.data(), bytes_.size() - 4);
    if (crc.value() != stored)
        badTrace(strprintf("CRC mismatch (stored %08x, computed %08x): "
                           "file is corrupt",
                           stored, crc.value()));

    // Validate every record's enum-like fields up front: a CRC-valid
    // but crafted file must be rejected here, not fed to the pipeline
    // (an out-of-range register would index the rename table out of
    // bounds; an out-of-range op class would index the property table),
    // and a flag must have the one spelling the writer gives it.
    for (std::uint64_t i = 0; i < info_.count; ++i) {
        ByteReader rec(bytes_, recordsOff_ + i * kTraceRecordBytes);
        rec.skip(24); // pc, effAddr, target
        std::uint8_t opc = rec.u8();
        if (opc >= kNumOpClasses)
            badTrace("record " + std::to_string(i) +
                     " has invalid op class " + std::to_string(opc));
        rec.skip(1); // memSize
        if (rec.u8() > 1)
            badTrace("record " + std::to_string(i) +
                     " has a taken flag other than 0 or 1");
        for (int r = 0; r < 1 + kMaxSrcs; ++r) {
            RegId reg = unpackReg(rec.u16());
            if (reg.valid() && (reg.cls >= kNumRegClasses ||
                                reg.idx >= kArchRegsPerClass))
                badTrace("record " + std::to_string(i) +
                         " has invalid register " +
                         std::to_string(reg.cls) + ":" +
                         std::to_string(reg.idx));
        }
    }
}

MicroOp
TraceReader::record(std::uint64_t i) const
{
    sim_assert(i < info_.count);
    ByteReader in(bytes_, recordsOff_ + i * kTraceRecordBytes);
    MicroOp op;
    op.pc = in.u64();
    op.effAddr = in.u64();
    op.target = in.u64();
    std::uint8_t opc = in.u8();
    sim_assert(opc < kNumOpClasses);
    op.opc = static_cast<OpClass>(opc);
    op.memSize = in.u8();
    op.taken = in.u8() != 0;
    op.dst = unpackReg(in.u16());
    for (RegId &src : op.srcs)
        src = unpackReg(in.u16());
    return op;
}

TraceReader
loadTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        badTrace("cannot open '" + path + "'");
    std::ostringstream data;
    data << in.rdbuf();
    try {
        return TraceReader(data.str());
    } catch (const std::runtime_error &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

void
writeTraceFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        badTrace("cannot open '" + path + "' for writing");
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        badTrace("short write to '" + path + "'");
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

std::string
recordTrace(const TraceInfo &info)
{
    bool known = false;
    for (const SuiteEntry &e : kernelSuite())
        known = known || e.name == info.kernel;
    if (!known)
        badTrace("cannot record unknown kernel '" + info.kernel +
                 "' (see `ltp list-kernels`)");

    WorkloadPtr wl = makeKernel(info.kernel);
    wl->reset(info.seed);
    TraceWriter writer(info);
    for (std::uint64_t i = 0, n = info.recordLength(); i < n; ++i)
        writer.append(wl->next());
    return writer.finish();
}

} // namespace ltp
