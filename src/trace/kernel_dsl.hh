/**
 * @file
 * A tiny "assembler" for writing synthetic kernels.
 *
 * Kernels subclass @ref ltp::Kernel (a LoopKernel that can clone
 * itself) and implement emitIteration(),
 * appending one loop iteration's micro-ops with the emit helpers.  Each
 * static position in the loop body (a "slot") maps to a stable PC, which
 * is what allows the UIT and the hit/miss predictor to learn — exactly
 * as they would on real SPEC code where the same static loads miss
 * repeatedly.
 *
 * Memory footprints are expressed as @ref ltp::Region objects carved out
 * of a per-kernel address range; a region's size relative to the cache
 * hierarchy (32kB L1 / 256kB L2 / 1MB L3) determines where its accesses
 * hit, and its access pattern (sequential vs. random) determines whether
 * the stride prefetcher can cover it.
 */

#ifndef LTP_TRACE_KERNEL_DSL_HH
#define LTP_TRACE_KERNEL_DSL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "trace/workload.hh"

namespace ltp {

/** A contiguous memory footprint with wrapping element addressing. */
struct Region
{
    Addr base = 0;
    std::uint64_t bytes = 0;

    /** Address of element @p index of size @p elem_size, wrapping. */
    Addr
    elem(std::uint64_t index, int elem_size) const
    {
        sim_assert(bytes >= static_cast<std::uint64_t>(elem_size));
        std::uint64_t n = bytes / elem_size;
        return base + (index % n) * elem_size;
    }

    /** A uniformly random element address. */
    Addr
    randElem(Rng &rng, int elem_size) const
    {
        return elem(rng.below(bytes / elem_size), elem_size);
    }
};

/**
 * Base class for loop-shaped kernels.
 *
 * Handles stream buffering, per-slot PC assignment, region allocation,
 * and deterministic reset.  Subclasses implement:
 *   - init():          reset kernel state (indices, pointers) and carve
 *                      regions (idempotent: called on every reset)
 *   - emitIteration(): append one iteration of micro-ops
 */
class LoopKernel : public Workload
{
  public:
    explicit LoopKernel(std::string name);

    std::string name() const override { return name_; }
    void reset(std::uint64_t seed) override;
    MicroOp next() override;

    /** Number of completed emitIteration() calls since reset. */
    std::uint64_t iteration() const { return iter_; }

  protected:
    virtual void init() = 0;
    virtual void emitIteration() = 0;

    /** PC of body slot @p slot (stable across iterations). */
    Addr pcOf(int slot) const { return pc_base_ + slot * 4; }

    /** Carve a region of @p bytes out of the kernel's address space. */
    Region region(std::uint64_t bytes);

    /// @name Emit helpers (append to the current iteration).
    /// @{
    void emitOp(int slot, OpClass c, RegId dst, RegId s1 = RegId(),
                RegId s2 = RegId(), RegId s3 = RegId());
    void emitLoad(int slot, RegId dst, Addr addr, RegId a1 = RegId(),
                  RegId a2 = RegId(), int size = 8);
    void emitStore(int slot, Addr addr, RegId data, RegId a1 = RegId(),
                   RegId a2 = RegId(), int size = 8);
    /** Conditional branch to @p target_slot; direction from the trace. */
    void emitBranch(int slot, bool taken, int target_slot,
                    RegId cond = RegId());
    /// @}

    Rng rng_;       ///< deterministic per-kernel randomness
    std::uint64_t iter_ = 0;

  private:
    std::string name_;
    Addr pc_base_;
    Addr next_region_;
    std::vector<MicroOp> buf_;
    std::size_t pos_ = 0;
};

/**
 * LoopKernel plus the clone() every kernel shares: a copy of the
 * derived kernel (generator state, RNG, buffered iteration), so
 * kernels subclass Kernel<Self> rather than LoopKernel directly.
 */
template <class Derived>
class Kernel : public LoopKernel
{
  public:
    using LoopKernel::LoopKernel;

    WorkloadPtr
    clone() const override
    {
        return std::make_unique<Derived>(
            static_cast<const Derived &>(*this));
    }
};

/** FNV-1a hash used to derive per-kernel seeds and PC bases. */
std::uint64_t hashName(const std::string &s);

} // namespace ltp

#endif // LTP_TRACE_KERNEL_DSL_HH
