/**
 * @file
 * Pluggable execution backends for the Runner.
 *
 * The Runner used to call Simulator::runOnce directly; it is now a
 * scheduler over an ExecBackend, so where a cell's Metrics come from is
 * interchangeable:
 *
 *  - LocalBackend  — in-process simulation (the old behaviour, and the
 *    zero-overhead default: no keys are computed, nothing touches disk);
 *  - CachedBackend — decorator adding the content-addressed on-disk
 *    result cache: a hit skips simulation entirely, a miss delegates to
 *    the inner backend and persists the result;
 *  - ServeBackend  (serve/client.hh) — submits cells to an `ltp serve`
 *    daemon over TCP, which schedules them on its own pool, dedupes
 *    identical in-flight cells across clients, and answers from the
 *    shared cache;
 *  - WorkerPool    (serve/worker_pool.hh) — a frontend daemon's compute
 *    backend: probes the worker daemons' caches, then dispatches the
 *    cell to one of them (LPT order), falling back to a LocalBackend.
 *
 * The daemon computes every cell through the same stack the CLI uses
 * (CachedBackend over WorkerPool or LocalBackend), under one layer of
 * its own: in-flight dedupe.
 *
 * runCell() must be thread-safe: the Runner invokes it concurrently
 * from pool workers.  The seed rides inside @p cfg (SimConfig::seed)
 * and is part of the cell key via the canonical config JSON.
 */

#ifndef LTP_SIM_EXEC_BACKEND_HH
#define LTP_SIM_EXEC_BACKEND_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "sample/sample_plan.hh"
#include "sim/cell_key.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/result_cache.hh"
#include "sim/simulator.hh"

namespace ltp {

/** What one cell execution produced, and whether it was recomputed. */
struct CellResult
{
    Metrics metrics;
    bool cacheHit = false; ///< not computed by this call: a cache hit
                           ///< (local or remote) or a dedupe
    /** Answered by joining an identical in-flight computation (the
     *  serve daemon's dedupe; implies cacheHit). */
    bool deduped = false;
};

/** Where cells run: in-process, through the cache, or on a daemon. */
class ExecBackend
{
  public:
    virtual ~ExecBackend() = default;

    /** Short name for logs and summaries ("local", "cache", "serve"). */
    virtual std::string name() const = 0;

    /**
     * True when the backend addresses results by CellKey; the Runner
     * only derives keys (config canonicalization + SHA-256) for
     * backends that use them, so the pure-local path stays free of
     * hashing overhead.
     */
    virtual bool wantsKey() const { return false; }

    /**
     * Produce the Metrics of one cell.  @p key is empty unless
     * wantsKey().  @p sampling selects interval sampling when
     * enabled(); the default (disabled) plan runs full detail.
     * Thread-safe; blocking.
     * @throws std::runtime_error on unknown workloads or, for remote
     *         backends, transport failures.
     */
    virtual CellResult runCell(const CellKey &key, const SimConfig &cfg,
                               const std::string &workload,
                               const RunLengths &lengths,
                               const SamplePlan &sampling) = 0;

    /**
     * The most recent sampling phase label ("fast-forward 3/8",
     * "warmup 3/8", "sample 3/8") reported by a cell this backend is
     * currently running, or "" outside sampled runs.  Thread-safe;
     * display-only (concurrent cells share one label, last write
     * wins).
     */
    virtual std::string currentPhase() const { return std::string(); }
};

using ExecBackendPtr = std::shared_ptr<ExecBackend>;

/** In-process simulation (the serial/thread-pool reference). */
class LocalBackend : public ExecBackend
{
  public:
    std::string name() const override { return "local"; }

    CellResult runCell(const CellKey &key, const SimConfig &cfg,
                       const std::string &workload,
                       const RunLengths &lengths,
                       const SamplePlan &sampling) override;

    std::string currentPhase() const override;

    /** The process-wide shared instance (the Runner's default). */
    static ExecBackendPtr instance();

  private:
    mutable std::mutex phase_mutex_;
    std::string phase_;
};

/** Content-addressed cache decorator over any inner backend. */
class CachedBackend : public ExecBackend
{
  public:
    CachedBackend(ExecBackendPtr inner,
                  std::shared_ptr<ResultCache> cache);

    std::string name() const override
    {
        return "cache(" + inner_->name() + ")";
    }

    bool wantsKey() const override { return true; }

    CellResult runCell(const CellKey &key, const SimConfig &cfg,
                       const std::string &workload,
                       const RunLengths &lengths,
                       const SamplePlan &sampling) override;

    std::string currentPhase() const override
    {
        return inner_->currentPhase();
    }

    const ResultCache &cache() const { return *cache_; }

    /// @name Lifetime hit/miss counters (thread-safe)
    /// @{
    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    /// @}

  private:
    ExecBackendPtr inner_;
    std::shared_ptr<ResultCache> cache_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace ltp

#endif // LTP_SIM_EXEC_BACKEND_HH
