/**
 * @file
 * Functional fast-forward engine: retires instructions architecturally
 * — branch-predictor training and the cache/prefetcher image — with no
 * pipeline modeling (no IQ/ROB/LSQ/LTP, no cycles), so the stream
 * position advances at an order of magnitude higher rate than detailed
 * simulation.
 *
 * The engine is the body of a sampled run's warming chain
 * (warm_chain.hh): it owns the per-thread streams and retires *every*
 * op of them functionally, sample windows included.  Nothing detailed
 * ever reads from or writes back into it — a detailed sample runs on
 * clones of the streams and a copy of the warmed hierarchy — so
 * the engine's state at position p is a pure function of (members,
 * seed, memory config, predictor geometry, p).
 *
 * Warming fidelity, per op:
 *  - branches: BranchPredictor::predict trains tables + history in
 *    stream order, exactly as detailed fetch does (raw PC — the core
 *    indexes its predictor with unoffset PCs);
 *  - loads/stores: MemSystem::warmAccess with the per-thread address
 *    base, warming tags/LRU/dirty bits/prefetcher without timing, so
 *    the tag arrays end as a timed run leaves them (dirty victims
 *    propagate down, prefetches fill L3).  A full run's functional
 *    warm leaves the same hierarchy at the same position.
 *
 * A timing-only model has no register values, so there is no register
 * image to carry: the detailed core rebuilds its rename state from
 * the stream.
 */

#ifndef LTP_SAMPLE_FAST_FORWARD_HH
#define LTP_SAMPLE_FAST_FORWARD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/branch_pred.hh"
#include "mem/mem_system.hh"
#include "sim/config.hh"
#include "trace/workload.hh"

namespace ltp {

/** Functional-only fast-forward over one run's thread streams. */
class FastForward
{
  public:
    /**
     * Build the engine over freshly-reset streams (position 0) for
     * @p members (one workload name per thread, tid order), warming
     * into the shared @p mem hierarchy.
     */
    FastForward(const SimConfig &cfg,
                const std::vector<std::string> &members, MemSystem &mem);

    /**
     * Functionally retire until every thread's stream position reaches
     * @p target, round-robin interleaved across threads (the shared
     * hierarchy warms under the same mix it will serve).  No thread
     * may already be past @p target (asserted).
     */
    void advanceTo(std::uint64_t target);

    int numThreads() const { return int(threads_.size()); }

    /** Thread @p tid's stream, positioned at consumed(tid). */
    const Workload &stream(int tid) const
    {
        return *threads_[std::size_t(tid)].stream;
    }

    /** Current stream position of @p tid (ops pulled from the stream). */
    std::uint64_t
    consumed(int tid) const
    {
        return threads_[std::size_t(tid)].consumed;
    }

    /** Move @p tid's stream @p n ops forward without warming anything
     *  (checkpoint restore installs the warmed images separately). */
    void skip(int tid, std::uint64_t n);

    /** The functionally-warmed predictor (its image seeds each sample). */
    BranchPredictor &branchPred(int tid) { return threads_[std::size_t(tid)].bpred; }
    const BranchPredictor &branchPred(int tid) const
    {
        return threads_[std::size_t(tid)].bpred;
    }

    /** Functionally-retired instructions. */
    std::uint64_t retired() const { return retired_; }

    /** Measured fast-forward rate over all advanceTo() calls so far,
     *  in thousands of instructions per wall-clock second. */
    double kips() const;

  private:
    struct ThreadState
    {
        WorkloadPtr stream;
        std::uint64_t consumed = 0;
        BranchPredictor bpred;

        ThreadState(WorkloadPtr w, const CoreConfig &cfg)
            : stream(std::move(w)), bpred(cfg.bpTableBits, cfg.btbEntries)
        {
        }
    };

    /** Pull and functionally retire one op on thread @p tid. */
    void retireOne(int tid);

    MemSystem &mem_;
    std::vector<ThreadState> threads_;
    std::uint64_t retired_ = 0;
    double elapsed_sec_ = 0.0; ///< wall time inside advanceTo()
};

} // namespace ltp

#endif // LTP_SAMPLE_FAST_FORWARD_HH
