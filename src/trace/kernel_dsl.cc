#include "trace/kernel_dsl.hh"

namespace ltp {

std::uint64_t
hashName(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

LoopKernel::LoopKernel(std::string name)
    : name_(std::move(name))
{
    // Distinct text and data ranges per kernel so suites can be compared
    // without accidental cache sharing between configurations.
    pc_base_ = 0x400000 + (hashName(name_) & 0xffff) * 0x1000;
    next_region_ = 0;
}

void
LoopKernel::reset(std::uint64_t seed)
{
    rng_ = Rng(seed ^ hashName(name_));
    buf_.clear();
    pos_ = 0;
    iter_ = 0;
    next_region_ = 0x10000000;
    init();
}

MicroOp
LoopKernel::next()
{
    while (pos_ >= buf_.size()) {
        buf_.clear();
        pos_ = 0;
        emitIteration();
        iter_ += 1;
        sim_assert(!buf_.empty());
    }
    return buf_[pos_++];
}

Region
LoopKernel::region(std::uint64_t bytes)
{
    // Page-align and pad so distinct regions never share a cache block.
    std::uint64_t aligned = (bytes + 4095) & ~std::uint64_t(4095);
    Region r{next_region_, bytes};
    next_region_ += aligned + 4096;
    return r;
}

namespace {

/** Place the valid registers among @p a, @p b, @p c in @p op's
 *  sources, in order (OpBuilder::src's placement, without the copies). */
void
addSrcs(MicroOp &op, RegId a, RegId b = RegId(), RegId c = RegId())
{
    int n = 0;
    if (a.valid())
        op.srcs[n++] = a;
    if (b.valid())
        op.srcs[n++] = b;
    if (c.valid())
        op.srcs[n] = c;
}

} // namespace

// The emit helpers construct each op in place in the iteration
// buffer: generation feeds every fast-forwarded instruction, so it
// sits on a sampled run's critical path.

void
LoopKernel::emitOp(int slot, OpClass c, RegId dst, RegId s1, RegId s2,
                   RegId s3)
{
    MicroOp &op = buf_.emplace_back();
    op.pc = pcOf(slot);
    op.opc = c;
    if (dst.valid())
        op.dst = dst;
    addSrcs(op, s1, s2, s3);
}

void
LoopKernel::emitLoad(int slot, RegId dst, Addr addr, RegId a1, RegId a2,
                     int size)
{
    MicroOp &op = buf_.emplace_back();
    op.pc = pcOf(slot);
    op.opc = OpClass::Load;
    if (dst.valid())
        op.dst = dst;
    addSrcs(op, a1, a2);
    op.effAddr = addr;
    op.memSize = static_cast<std::uint8_t>(size);
}

void
LoopKernel::emitStore(int slot, Addr addr, RegId data, RegId a1, RegId a2,
                      int size)
{
    MicroOp &op = buf_.emplace_back();
    op.pc = pcOf(slot);
    op.opc = OpClass::Store;
    addSrcs(op, data, a1, a2);
    op.effAddr = addr;
    op.memSize = static_cast<std::uint8_t>(size);
}

void
LoopKernel::emitBranch(int slot, bool taken, int target_slot, RegId cond)
{
    MicroOp &op = buf_.emplace_back();
    op.pc = pcOf(slot);
    op.opc = OpClass::Branch;
    addSrcs(op, cond);
    op.taken = taken;
    op.target = pcOf(target_slot);
}

} // namespace ltp
