/**
 * @file
 * The example loop of the paper's Figure 2:
 *
 *   for (i = 0; i < 10,000; i++) {
 *       d = B[A[j--]];
 *       C[i] = d + 5;
 *   }
 *
 * B[] misses in the cache (random indices into a DRAM-sized array);
 * A[] and C[] hit thanks to their prefetch-friendly access patterns.
 *
 * Slot letters follow the paper exactly:
 *   A  addrA = baseA + j     U+R
 *   B  t1 = load A[j]        U+R   (hit)
 *   C  addrB = baseB + t1    U+R
 *   D  d = load B[t1]        U+R   (miss -> the long-latency seed)
 *   E  j = j - 1             U+R
 *   F  d = d + 5             NU+NR
 *   G  addrC = baseC + i     NU+R
 *   H  store d -> C[i]       NU+NR (hit)
 *   I  i = i + 1             NU+R
 *   J  t2 = i - 10000        NU+R
 *   K  bltz t2, loop         NU+R
 */

#include "trace/kernel_dsl.hh"
#include "trace/kernels.hh"

namespace ltp {

namespace {

class PaperLoop : public Kernel<PaperLoop>
{
  public:
    PaperLoop() : Kernel("paper_loop") {}

    /** Slot indices named after the paper's instruction letters. */
    enum Slot { A, B, C, D, E, F, G, H, I, J, K };

  protected:
    void
    init() override
    {
        arr_a_ = region(8 << 20);  // descending sequential: prefetched
        arr_b_ = region(64 << 20); // random: misses to DRAM
        arr_c_ = region(512 << 10); // ascending stores: L3 resident
        j_ = arr_a_.bytes / 8;
        i_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId addr_a = intReg(1), t1 = intReg(2), addr_b = intReg(3),
                    d = intReg(4), d2 = intReg(5), addr_c = intReg(6),
                    j = intReg(10), i = intReg(11), t2 = intReg(12);

        j_ -= 1;
        emitOp(A, OpClass::IntAlu, addr_a, j);
        emitLoad(B, t1, arr_a_.elem(j_, 8), addr_a);
        emitOp(C, OpClass::IntAlu, addr_b, t1);
        emitLoad(D, d, arr_b_.randElem(rng_, 8), addr_b);
        emitOp(E, OpClass::IntAlu, j, j);
        emitOp(F, OpClass::IntAlu, d2, d);
        emitOp(G, OpClass::IntAlu, addr_c, i);
        emitStore(H, arr_c_.elem(i_, 8), d2, addr_c);
        emitOp(I, OpClass::IntAlu, i, i);
        emitOp(J, OpClass::IntAlu, t2, i);
        emitBranch(K, true, A, t2);
        i_ += 1;
    }

  private:
    Region arr_a_, arr_b_, arr_c_;
    std::uint64_t j_ = 0;
    std::uint64_t i_ = 0;
};

} // namespace

WorkloadPtr
makePaperLoop()
{
    return std::make_unique<PaperLoop>();
}

} // namespace ltp
