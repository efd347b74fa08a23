/**
 * @file
 * MLP-insensitive kernels (SPEC stand-ins; see kernels.hh).
 *
 * These kernels either fit in the upper cache levels or stream in
 * prefetcher-friendly patterns, so a larger instruction window buys no
 * additional outstanding misses — the population for which the paper
 * shows an IQ of 32 already extracts nearly all ILP (Figure 1).
 */

#include "trace/kernel_dsl.hh"
#include "trace/kernels.hh"

namespace ltp {

namespace {

/** Dense FP compute over L1-resident data: high ILP, zero misses. */
class DenseCompute : public Kernel<DenseCompute>
{
  public:
    DenseCompute() : Kernel("dense_compute") {}

  protected:
    void
    init() override
    {
        a_ = region(8 << 10);
        b_ = region(8 << 10);
        c_ = region(8 << 10);
        i_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId ai = intReg(1), i = intReg(10), t = intReg(11);
        const RegId x = fpReg(1), y = fpReg(2), z = fpReg(3),
                    w = fpReg(4), u = fpReg(5), v = fpReg(6);

        emitOp(0, OpClass::IntAlu, ai, i);
        emitLoad(1, x, a_.elem(i_, 8), ai);
        emitLoad(2, y, b_.elem(i_, 8), ai);
        // Two independent FMA-like chains: plenty of ILP.
        emitOp(3, OpClass::FpMul, z, x, y);
        emitOp(4, OpClass::FpAlu, w, z, x);
        emitOp(5, OpClass::FpMul, u, x, x);
        emitOp(6, OpClass::FpAlu, v, u, y);
        emitOp(7, OpClass::FpAlu, w, w, v);
        emitStore(8, c_.elem(i_, 8), w, ai);
        emitOp(9, OpClass::IntAlu, i, i);
        emitOp(10, OpClass::IntAlu, t, i);
        emitBranch(11, true, 0, t);
        i_ += 1;
    }

  private:
    Region a_, b_, c_;
    std::uint64_t i_ = 0;
};

/** Branch-dense integer code with small lookup tables. */
class BranchyInt : public Kernel<BranchyInt>
{
  public:
    BranchyInt() : Kernel("branchy_int") {}

  protected:
    void
    init() override
    {
        tbl_ = region(16 << 10);
        i_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId v = intReg(1), w = intReg(2), x = intReg(3),
                    i = intReg(10);

        emitLoad(0, v, tbl_.randElem(rng_, 8), i);       // L1 hit
        emitOp(1, OpClass::IntAlu, w, v);
        bool skip_a = rng_.chance(0.7);                  // data dependent
        emitBranch(2, skip_a, 5, w);
        if (!skip_a) {
            emitOp(3, OpClass::IntAlu, x, w);
            emitOp(4, OpClass::IntAlu, x, x);
        }
        emitOp(5, OpClass::IntAlu, x, w, v);
        bool skip_b = rng_.chance(0.6);
        emitBranch(6, skip_b, 8, x);
        if (!skip_b)
            emitOp(7, OpClass::IntAlu, v, x);
        emitOp(8, OpClass::IntAlu, i, i);
        emitBranch(9, true, 0, i);
        i_ += 1;
    }

  private:
    Region tbl_;
    std::uint64_t i_ = 0;
};

/** FP chains with occasional divides; L1-resident working set. */
class FpKernel : public Kernel<FpKernel>
{
  public:
    FpKernel() : Kernel("fp_kernel") {}

  protected:
    void
    init() override
    {
        buf_ = region(16 << 10);
        i_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId ai = intReg(1), i = intReg(10);
        const RegId x = fpReg(1), y = fpReg(2), z = fpReg(3),
                    r = fpReg(4);

        emitOp(0, OpClass::IntAlu, ai, i);
        emitLoad(1, x, buf_.elem(i_, 8), ai);
        emitOp(2, OpClass::FpMul, y, x, x);
        emitOp(3, OpClass::FpAlu, z, y, x);
        if (iter_ % 32 == 0)
            emitOp(4, OpClass::FpDiv, r, z, y);   // long fixed latency
        else
            emitOp(5, OpClass::FpMul, r, z, y);
        emitOp(6, OpClass::FpAlu, r, r, x);
        emitStore(7, buf_.elem(i_, 8), r, ai);
        emitOp(8, OpClass::IntAlu, i, i);
        emitBranch(9, true, 0, i);
        i_ += 1;
    }

  private:
    Region buf_;
    std::uint64_t i_ = 0;
};

/** Sequential sweep of an L2-resident buffer with compare/accumulate. */
class CacheResidentStream : public Kernel<CacheResidentStream>
{
  public:
    CacheResidentStream() : Kernel("cache_stream") {}

  protected:
    void
    init() override
    {
        buf_ = region(128 << 10);
        i_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId a = intReg(1), v = intReg(2), w = intReg(3),
                    acc = intReg(4), i = intReg(10);

        emitOp(0, OpClass::IntAlu, a, i);
        emitLoad(1, v, buf_.elem(i_, 8), a);
        emitLoad(2, w, buf_.elem(i_ + 8, 8), a);
        emitOp(3, OpClass::IntAlu, acc, acc, v);
        emitOp(4, OpClass::IntAlu, acc, acc, w);
        bool skip = rng_.chance(0.9);
        emitBranch(5, skip, 7, acc);
        if (!skip)
            emitOp(6, OpClass::IntAlu, acc, acc);
        emitOp(7, OpClass::IntAlu, i, i);
        emitBranch(8, true, 0, i);
        i_ += 1;
    }

  private:
    Region buf_;
    std::uint64_t i_ = 0;
};

/** Serial accumulation: low ILP by construction, but no misses. */
class Reduction : public Kernel<Reduction>
{
  public:
    Reduction() : Kernel("reduction") {}

  protected:
    void
    init() override
    {
        buf_ = region(8 << 10);
        i_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId a = intReg(1), i = intReg(10);
        const RegId v = fpReg(1), acc = fpReg(2);

        emitOp(0, OpClass::IntAlu, a, i);
        emitLoad(1, v, buf_.elem(i_, 8), a);
        emitOp(2, OpClass::FpAlu, acc, acc, v);  // serial chain
        emitOp(3, OpClass::IntAlu, i, i);
        emitBranch(4, true, 0, i);
        i_ += 1;
    }

  private:
    Region buf_;
    std::uint64_t i_ = 0;
};

/**
 * gcc flavour: mixed integer work plus a sequential sweep of a large
 * array.  The sweep *would* miss, but its perfectly regular stride is
 * covered by the L2 prefetcher — so with prefetching enabled (as in all
 * of the paper's experiments) the kernel stays MLP-insensitive.
 */
class IntMix : public Kernel<IntMix>
{
  public:
    IntMix() : Kernel("int_mix") {}

  protected:
    void
    init() override
    {
        big_ = region(32 << 20);
        tbl_ = region(8 << 10);
        i_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId a = intReg(1), v = intReg(2), w = intReg(3),
                    x = intReg(4), i = intReg(10);

        emitOp(0, OpClass::IntAlu, a, i);
        emitLoad(1, v, big_.elem(i_, 8), a);      // sequential: prefetched
        emitLoad(2, w, tbl_.randElem(rng_, 8), a); // L1 hit
        emitOp(3, OpClass::IntAlu, x, v, w);
        emitOp(4, OpClass::IntMul, x, x);
        bool skip = rng_.chance(0.8);
        emitBranch(5, skip, 7, x);
        if (!skip)
            emitOp(6, OpClass::IntAlu, x, x);
        emitStore(7, tbl_.elem(i_ & 255, 8), x, a);
        emitOp(8, OpClass::IntAlu, i, i);
        emitBranch(9, true, 0, i);
        i_ += 1;
    }

  private:
    Region big_, tbl_;
    std::uint64_t i_ = 0;
};

/**
 * Divide/sqrt heavy: the "long-latency instruction" class that is not a
 * memory miss (Section 2 counts division and square root).  No DRAM
 * traffic, so the DRAM-timer monitor keeps LTP powered off here.
 */
class DivHeavy : public Kernel<DivHeavy>
{
  public:
    DivHeavy() : Kernel("div_heavy") {}

  protected:
    void
    init() override
    {
        buf_ = region(8 << 10);
        i_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId a = intReg(1), q = intReg(2), i = intReg(10);
        const RegId x = fpReg(1), y = fpReg(2), r = fpReg(3);

        emitOp(0, OpClass::IntAlu, a, i);
        emitLoad(1, x, buf_.elem(i_, 8), a);
        emitOp(2, OpClass::FpDiv, y, x, x);
        emitOp(3, OpClass::FpSqrt, r, y);
        emitOp(4, OpClass::FpAlu, r, r, x);      // consumer of LL op
        emitOp(5, OpClass::IntDiv, q, a, a);
        emitOp(6, OpClass::IntAlu, q, q);        // consumer of LL op
        emitStore(7, buf_.elem(i_, 8), r, a);
        emitOp(8, OpClass::IntAlu, i, i);
        emitBranch(9, true, 0, i);
        i_ += 1;
    }

  private:
    Region buf_;
    std::uint64_t i_ = 0;
};

} // namespace

WorkloadPtr makeDenseCompute() { return std::make_unique<DenseCompute>(); }
WorkloadPtr makeBranchyInt() { return std::make_unique<BranchyInt>(); }
WorkloadPtr makeFpKernel() { return std::make_unique<FpKernel>(); }
WorkloadPtr makeCacheResidentStream()
{
    return std::make_unique<CacheResidentStream>();
}
WorkloadPtr makeReduction() { return std::make_unique<Reduction>(); }
WorkloadPtr makeIntMix() { return std::make_unique<IntMix>(); }
WorkloadPtr makeDivHeavy() { return std::make_unique<DivHeavy>(); }

} // namespace ltp
