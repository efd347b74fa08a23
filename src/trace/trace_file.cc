#include "trace/trace_file.hh"

#include <stdexcept>

#include "common/binio.hh"
#include "common/file_io.hh"
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
    std::string body;
    putU64le(body, info_.seed);
    putU64le(body, info_.funcWarm);
    putU64le(body, info_.pipeWarm);
    putU64le(body, info_.detail);
    putU64le(body, count_);
    if (info_.kernel.size() > 0xffff)
        badTrace("kernel name too long to encode");
    putU16le(body, static_cast<std::uint16_t>(info_.kernel.size()));
    body += info_.kernel;
    body += records_;
    return seal(kTraceMagic, kTraceVersion, body);
}

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TraceReader::TraceReader(std::string bytes) : bytes_(std::move(bytes))
{
    ByteReader in = openSealed(bytes_, kTraceMagic, kTraceVersion, "trace");
    info_.seed = in.u64();
    info_.funcWarm = in.u64();
    info_.pipeWarm = in.u64();
    info_.detail = in.u64();
    info_.count = in.u64();
    info_.kernel = in.raw(in.u16());
    recordsOff_ = in.offset();

    // The records consume the body exactly.  Divide instead of
    // multiplying the (untrusted) count so an absurd header value
    // cannot wrap the size check mod 2^64.
    std::size_t payload = in.remaining();
    if (payload % kTraceRecordBytes != 0 ||
        info_.count != payload / kTraceRecordBytes)
        badTrace("size mismatch: header promises " +
                 std::to_string(info_.count) + " records, file has " +
                 std::to_string(payload) + " payload bytes (" +
                 std::to_string(payload / kTraceRecordBytes) +
                 " records)");

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
    std::string bytes = readFile(path);
    try {
        return TraceReader(std::move(bytes));
    } catch (const std::runtime_error &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
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
