/**
 * @file
 * Worker fan-out for the serve daemon: persistent client connections to
 * N remote `ltp serve` daemons plus a cost-aware dispatcher, turning
 * one frontend daemon into a scheduler over a pool of machines.
 *
 * Dispatch is LPT (longest-processing-time) list scheduling: callers
 * block in runCell() while their cell waits in a queue ordered by
 * estimated cost (config class × detailed instructions × SMT width,
 * see cellCost); whenever a worker slot frees, the *longest* queued
 * cell is assigned to the worker with the most free capacity.  LTP
 * configs simulate ~2× slower than baseline (BENCH_simspeed.json), so
 * longest-first placement keeps the makespan near the LPT bound
 * instead of letting a late heavyweight cell serialize the tail.
 *
 * Failure model: a transport error (worker died, hung, unreachable)
 * marks the worker down and re-dispatches the cell to another worker;
 * a `serve error:` reply is the cell's own fault (unknown workload,
 * bad config) and propagates without retry.  When every worker is
 * down, runCell() computes the cell in-process so the sweep still
 * completes.  Downed workers stay down — reconnecting is the
 * operator's job (restart the frontend).
 *
 * Each worker also acts as a cache peer: before dispatching, runCell()
 * probes the up workers' result caches via the `lookup` frame, so a
 * cell any worker has ever computed is never re-simulated by the pool.
 *
 * The pool is the frontend daemon's compute backend: the daemon stacks
 * its CachedBackend on top, exactly as `ltp run --cache-dir` stacks one
 * on a LocalBackend.
 */

#ifndef LTP_SERVE_WORKER_POOL_HH
#define LTP_SERVE_WORKER_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/client.hh"

namespace ltp {

/** Snapshot of one worker's lifetime counters (`ltp serve stats`). */
struct WorkerStats
{
    std::string address; ///< host:port
    int capacity = 0;    ///< concurrent cells (the worker's pool size)
    bool up = true;
    std::uint64_t dispatched = 0; ///< cells sent to this worker
    std::uint64_t completed = 0;  ///< successful replies
    std::uint64_t retried = 0;    ///< dispatches that were re-dispatches
    std::uint64_t failed = 0; ///< transport, workload, or probe failures
    std::uint64_t peerHits = 0;   ///< cache peer-lookup hits answered
};

/**
 * Estimated relative wall cost of one cell, the LPT ordering key:
 * detailed instructions (per sample under a sampling plan), doubled
 * for LTP-enabled configs (they simulate ~2× slower), scaled by the
 * SMT thread count.  Only the ordering matters, not the unit.
 */
double cellCost(const SimConfig &cfg, const RunLengths &lengths,
                const SamplePlan &sampling);

/** Persistent connections to N worker daemons + the LPT dispatcher. */
class WorkerPool : public ExecBackend
{
  public:
    /**
     * Connect to every worker (bounded attempts each) and read its
     * capacity and model fingerprint from a stats RPC.
     * @throws std::runtime_error naming the first unreachable worker,
     *         or the first whose model is not this build's (both
     *         fingerprints named).
     */
    explicit WorkerPool(const std::vector<std::string> &specs,
                        const ServeClientOptions &opts = {},
                        bool quiet = false);

    std::size_t workerCount() const { return workers_.size(); }

    /** Sum of worker capacities (fixed after construction). */
    int totalCapacity() const { return totalCapacity_; }

    std::string name() const override { return "workers"; }

    bool wantsKey() const override { return true; }

    /**
     * Run one cell: probe the up workers' caches (a hit sets
     * cacheHit), else wait for a slot (LPT order), dispatch, and on
     * transport failure mark the worker down and re-dispatch
     * elsewhere.  Falls back to an in-process LocalBackend when every
     * worker is down.  cacheHit also reports a worker's own cache hit
     * or dedupe.  Thread-safe; blocking.
     * @throws std::runtime_error for workload errors (never retried).
     */
    CellResult runCell(const CellKey &key, const SimConfig &cfg,
                       const std::string &workload,
                       const RunLengths &lengths,
                       const SamplePlan &sampling) override;

    std::vector<WorkerStats> stats() const;

  private:
    struct Worker
    {
        std::string address;
        std::unique_ptr<ServeBackend> client;
        int capacity = 1;
        // All mutable state below is guarded by the pool mutex.
        int inflight = 0;
        bool up = true;
        std::uint64_t dispatched = 0;
        std::uint64_t completed = 0;
        std::uint64_t retried = 0;
        std::uint64_t failed = 0;
        std::uint64_t peerHits = 0;
    };

    /** Queue position: highest cost first, FIFO within equal cost. */
    struct QueueKey
    {
        double cost;
        std::uint64_t seq;
        bool
        operator<(const QueueKey &o) const
        {
            if (cost != o.cost)
                return cost > o.cost; // longest-processing-time first
            return seq < o.seq;
        }
    };

    struct Waiter
    {
        Worker *assigned = nullptr;
    };

    /** Probe the up workers' caches for @p key (no compute anywhere).
     *  @return true and fill @p out on the first hit. */
    bool peerLookup(const CellKey &key, Metrics *out);
    /** Block until a slot is granted (LPT order) or every worker is
     *  down (returns nullptr: caller computes locally). */
    Worker *acquireSlot(double cost);
    void releaseSlot(Worker *w);
    void markDown(Worker *w, const std::string &why);
    /** Assign queued waiters to free slots, longest cell to the
     *  least-loaded worker, until one side runs out.  Lock held. */
    void tryAdmitLocked();
    std::size_t upCountLocked() const;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::map<QueueKey, Waiter *> waiters_;
    std::uint64_t nextSeq_ = 0;
    int totalCapacity_ = 0;
    bool quiet_ = false;
    LocalBackend local_; ///< every worker down: compute in-process
};

/** Parse a --workers file: one host:port per line, '#' comments and
 *  blank lines skipped.  @throws on an unreadable file. */
std::vector<std::string> loadWorkerSpecs(const std::string &path);

} // namespace ltp

#endif // LTP_SERVE_WORKER_POOL_HH
