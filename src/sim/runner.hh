/**
 * @file
 * Parallel, sharded experiment runner.
 *
 * The paper's evaluation is a cross-product of configurations × kernels
 * (Table 1 baseline vs. proposal, the Figure 6 limit sweeps, the
 * Figure 10/11 trade-offs).  A SweepSpec names every cell of such a
 * study up front; the Runner shards the resulting jobs across a
 * ThreadPool and collects them into a thread-safe ResultGrid.
 *
 * Determinism contract: a job's Metrics are a pure function of
 * (config, kernel, lengths, seed).  Every Simulator owns its Rng,
 * seeded deterministically per job (see SweepSpec::add), so a parallel
 * run is bit-identical to a serial run of the same spec — asserted by
 * tests/test_runner.cc.  The same purity lets a sweep compute each
 * distinct (config, workload) cell once: a cell that recurs (a
 * baseline row that repeats a swept column, a kernel in two panels)
 * takes a copy of the first one's Metrics.
 */

#ifndef LTP_SIM_RUNNER_HH
#define LTP_SIM_RUNNER_HH

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/exec_backend.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"

namespace ltp {

/**
 * One cell of a sweep: run @p cfg over @p kernels (group-averaged when
 * more than one) and file the result under (row, series).
 */
struct SweepJob
{
    std::string row;    ///< grid row key (e.g. a resource size)
    std::string series; ///< grid series key (e.g. an LTP mode)
    SimConfig cfg;
    std::vector<std::string> kernels; ///< >1 => arithmetic group average
    std::string label; ///< Metrics::workload for group averages
};

/** A named cross-product of simulations sharing one staging plan. */
struct SweepSpec
{
    std::string name = "sweep";
    RunLengths lengths;

    /** Interval-sampling plan shared by every cell; the default
     *  (disabled) plan runs full detail.  When enabled it joins the
     *  cell-key preimage, so sampled results never alias full ones. */
    SamplePlan sampling;

    std::vector<SweepJob> jobs;

    /** Append a single-kernel job. */
    SweepSpec &add(const std::string &row, const std::string &series,
                   const SimConfig &cfg, const std::string &kernel);

    /** Append a group-average job over @p kernels, labelled @p label. */
    SweepSpec &addGroup(const std::string &row, const std::string &series,
                        const SimConfig &cfg,
                        const std::vector<std::string> &kernels,
                        const std::string &label);

    /**
     * Full cross-product: one row per kernel, one series per config
     * (keyed by SimConfig::name).
     */
    static SweepSpec cross(const std::string &name,
                           const std::vector<SimConfig> &configs,
                           const std::vector<std::string> &kernels,
                           const RunLengths &lengths);

    /** Total number of simulations (group jobs count one per kernel). */
    std::size_t simulationCount() const;
};

/**
 * Keyed result store for sweeps: results[row][series] = Metrics.
 * Rows are typically resource sizes, series the LTP modes.  put() is
 * safe to call concurrently from pool workers.
 */
class ResultGrid
{
  public:
    ResultGrid() = default;
    ResultGrid(ResultGrid &&other) noexcept;
    ResultGrid &operator=(ResultGrid &&other) noexcept;

    void put(const std::string &row, const std::string &series,
             const Metrics &m);

    /** @throws std::out_of_range naming the missing (row, series). */
    const Metrics &at(const std::string &row,
                      const std::string &series) const;

    bool has(const std::string &row, const std::string &series) const;

    /** Row keys in insertion-independent (sorted) order. */
    std::vector<std::string> rows() const;

    /** Series keys present in @p row, sorted. */
    std::vector<std::string> series(const std::string &row) const;

    /** (row, series) keys in first-put order: SweepSpec::jobs order for
     *  a Runner result, reply order for a served scenario. */
    std::vector<std::pair<std::string, std::string>> order() const;

    std::size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::map<std::string, Metrics>> grid_;
    std::vector<std::pair<std::string, std::string>> order_;
};

/** Everything a sweep produced, plus how it was produced. */
struct SweepResult
{
    std::string name;
    int threads = 1;
    std::string backend = "local";
    std::size_t simulations = 0;
    /** Distinct (config, workload) cells handed to the backend; the
     *  other simulations repeat one of them and copy its Metrics. */
    std::size_t computed = 0;
    std::size_t cacheHits = 0; ///< cells answered by a cache layer
    double wallMs = 0.0;
    ResultGrid grid;
};

/** One heartbeat sample: cells finished, cells total, cache hits so
 *  far.  `hits` generalizes the old (done, total) pair for the cached
 *  and serve backends; it stays 0 on the pure-local path. */
struct Progress
{
    std::size_t done = 0;
    std::size_t total = 0;
    std::size_t hits = 0;
    /** Sampling phase label of a currently running cell
     *  ("fast-forward 3/8", "warmup 3/8", "sample 3/8"), or "" outside
     *  sampled runs.  Display-only. */
    std::string phase;
};

/**
 * Heartbeat callback for long sweeps.  Called from the coordinating
 * thread only — implementations need no locking — on every completed
 * shard in serial (threads == 1) runs and every ~250 ms in threaded
 * runs (plus once at completion), so `--threads=1` sweeps report
 * progress through the exact same path as sharded ones.
 */
using ProgressFn = std::function<void(const Progress &)>;

/**
 * Schedules a SweepSpec's jobs over an ExecBackend, sharded across a
 * fixed-size thread pool.  threads == 1 runs fully inline (the serial
 * reference); threads <= 0 selects the hardware concurrency.  The
 * default backend is the shared in-process LocalBackend; pass a
 * CachedBackend or ServeBackend to make the same sweep hit the
 * content-addressed cache or an `ltp serve` daemon instead.
 */
class Runner
{
  public:
    explicit Runner(int threads = 0, ExecBackendPtr backend = nullptr);

    int threads() const { return threads_; }
    ExecBackend &backend() const { return *backend_; }

    /**
     * Run every job; blocks until the grid is complete.  Each distinct
     * (config, workload) shard runs once; a repeat takes its first
     * occurrence's Metrics and cache-hit flag, and still counts in
     * the progress and the hit totals.
     */
    SweepResult run(const SweepSpec &spec,
                    const ProgressFn &progress = {}) const;

  private:
    int threads_;
    ExecBackendPtr backend_;
};

} // namespace ltp

#endif // LTP_SIM_RUNNER_HH
