/**
 * @file
 * Workload interface: a deterministic, restartable micro-op stream.
 *
 * The paper evaluates on SPEC CPU2006 SimPoint traces.  Those traces are
 * proprietary, so this reproduction substitutes a suite of synthetic
 * kernels (DESIGN.md section 1) whose dependence topology and memory
 * footprints span the same MLP-sensitive / MLP-insensitive space.
 *
 * Determinism contract: after reset(seed), the sequence returned by
 * next() is a pure function of (kernel, seed).  The oracle classifier
 * (src/ltp/oracle.*) relies on this to replay the exact trace the timing
 * simulation consumes.
 */

#ifndef LTP_TRACE_WORKLOAD_HH
#define LTP_TRACE_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "isa/microop.hh"

namespace ltp {

/** An infinite, deterministic stream of micro-ops. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Stable kernel name used by the suite registry and result tables. */
    virtual std::string name() const = 0;

    /** Restart the stream from the beginning with the given seed. */
    virtual void reset(std::uint64_t seed) = 0;

    /** Produce the next micro-op.  Streams never terminate. */
    virtual MicroOp next() = 0;

    /**
     * An independent copy of this stream at its current position:
     * the copy's next() returns what this stream's next() would, and
     * advancing one never moves the other.  Sampling captures one per
     * thread at each sample start, so every config measuring that
     * sample replays the identical window.
     */
    virtual std::unique_ptr<Workload> clone() const = 0;

    /**
     * Advance the stream by @p n micro-ops without observing them.
     * Equivalent to n calls to next() with the results dropped;
     * sources with random access (trace replays) override this with
     * an O(1) seek.  Used by the fast-forward engine to resume from
     * an architectural checkpoint.
     */
    virtual void
    skip(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            (void)next();
    }
};

using WorkloadPtr = std::unique_ptr<Workload>;

} // namespace ltp

#endif // LTP_TRACE_WORKLOAD_HH
