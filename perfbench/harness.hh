/**
 * @file
 * Measurement pieces of the benchmark of record: spans recorded around
 * the library calls the benchmark makes, self-time arithmetic, the
 * tail-percentile rule, the correctness tally, and the two execution
 * backends the benchmark puts in front of the library's own:
 *
 *  - TimedBackend wraps any ExecBackend and times every runCell call
 *    as the Runner sees it (always on: two clock reads per cell);
 *  - DecomposedBackend computes a cell locally from public pieces
 *    (makeKernel, oracleClassify, Workload::next, MemSystem::warmAccess,
 *    Core, runDetailPhases; Sampler with a PhaseFn) so each piece gets
 *    its own span.  Its Metrics must equal Simulator::runOnce /
 *    Sampler::runOnce, which the workloads check on every traced run.
 *
 * Nothing here is compiled into the simulator: spans live only in the
 * benchmark's own code.
 */

#ifndef LTP_PERFBENCH_HARNESS_HH
#define LTP_PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/exec_backend.hh"
#include "sim/runner.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/** What the run is doing when a span opens; Off records nothing. */
enum class Phase
{
    Off,
    Setup,     ///< timed set-up bursts
    Reference, ///< the untimed serial reference (standalone computes)
    Pass,      ///< traced passes
    Verify,    ///< checks on the state the passes left
};

const char *phaseName(Phase p);

/** One timed interval around a library call. */
struct Span
{
    std::string name;
    double start = 0.0;    ///< seconds since the tracer's epoch
    double end = 0.0;
    int parent = -1;       ///< index of the enclosing span, -1 = none
    std::uint64_t cell = 0; ///< cell id (0 = not cell-scoped)
    std::uint64_t ops = 0;  ///< work the span covers (micro-ops, cycles)
    int flag = 0;           ///< span-specific marker (served: 1 = hit)
    /// Estimated seconds of an interleaved part no child span can
    /// cover (sim.warm: the Workload::next calls).
    double est = 0.0;
    Phase phase = Phase::Pass;

    double duration() const { return end - start; }
};

/**
 * Thread-safe in-memory span store.  A disabled tracer, or one in
 * Phase::Off, records nothing, so the untraced passes pay only a branch
 * per call site.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled, Clock::time_point epoch = Clock::now());
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool recording() const { return enabled_ && phase_.load() != Phase::Off; }

    /** Tag spans opened from now on (between passes only). */
    void setPhase(Phase p) { phase_.store(p); }

    /** Open a span; @return its index, or -1 when not recording. */
    int open(const std::string &name, std::uint64_t cell, int parent);

    /** Close span @p id (no-op for -1). */
    void close(int id, std::uint64_t ops = 0, int flag = 0,
               double est = 0.0);

    /** Parent for spans opened on threads with no open span (pool
     *  workers): the Runner::run span of the current pass. */
    void setRoot(int id) { root_.store(id); }
    int root() const { return root_.load(); }

    std::vector<Span> spans() const;

  private:
    double now() const;

    bool enabled_;
    Clock::time_point epoch_;
    std::atomic<Phase> phase_{Phase::Off};
    std::atomic<int> root_{-1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * RAII span: opens on construction with the calling thread's innermost
 * open span (or the tracer's root) as parent, closes on destruction.
 * A @p cell of 0 inherits the enclosing span's cell id.
 */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, std::uint64_t cell = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void setOps(std::uint64_t ops) { ops_ = ops; }
    void setFlag(int flag) { flag_ = flag; }
    void setEstimate(double seconds) { est_ = seconds; }
    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_ = -1;
    std::uint64_t ops_ = 0;
    int flag_ = 0;
    double est_ = 0.0;
    /// The enclosing open span, restored on close.
    const Tracer *saved_tracer_ = nullptr;
    int saved_id_ = -1;
    std::uint64_t saved_cell_ = 0;
};

/** Self time of every span: its duration minus the part of it that
 *  the union of its children's intervals covers. */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Per span name: count, total, self and estimated seconds, ops,
 *  durations. */
struct LayerTotals
{
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
    double est = 0.0;
    std::uint64_t ops = 0;
    std::vector<double> durations;

    void add(const LayerTotals &o);
};

/** Totals per phase, then per span name. */
using Summary = std::map<Phase, std::map<std::string, LayerTotals>>;

Summary summarize(const std::vector<Span> &spans);

/** Write @p spans as JSON lines, each with its phase. */
void writeSpans(const std::string &path, const std::vector<Span> &spans);

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Nearest-rank @p pct percentile of @p v (0 for an empty vector). */
double percentile(std::vector<double> v, double pct);

/** A tail figure: which percentile, its value, and its support. */
struct Tail
{
    double pct = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0; ///< samples strictly above the rank
};

/**
 * The highest percentile of the ladder 50, 75, 90, 95, 99, 99.5, 99.9,
 * 99.95, 99.99 that has at least ten samples beyond it, with the
 * percentile chosen for @p chooseN samples (0 = v.size()) so that runs
 * with different sample counts report the same percentile.  Falls
 * back to the median when even p50 has fewer than ten beyond it.
 */
Tail tailPercentile(const std::vector<double> &v, std::size_t chooseN = 0);

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/** The comparable identity of one cell's result: SHA-256 of its
 *  Metrics JSON with the only host-time field (sampling.ffKips)
 *  zeroed. */
std::string digest(const ltp::Metrics &m);

/** Digest of every (row, series) entry of a result grid. */
using GridDigest = std::map<std::string, std::string>;
GridDigest gridDigest(const ltp::ResultGrid &grid);

/**
 * Cells of @p spec whose grid entry in @p got is missing or differs
 * from @p ref (a group entry counts each of its kernels).
 */
std::uint64_t mismatchedCells(const ltp::SweepSpec &spec,
                              const GridDigest &got,
                              const GridDigest &ref);

/** Next value of the benchmark's portable generator (splitmix64). */
std::uint64_t nextRandom(std::uint64_t &state);

/** Cells attempted and failed (errored or mismatched) in one run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes; ///< one line per failure cause

    void add(std::uint64_t cells, std::uint64_t bad,
             const std::string &what);
    double failedFrac() const;
};

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/** What TimedBackend saw for one runCell call. */
struct CellTiming
{
    double start = 0.0; ///< seconds since the backend's epoch
    double end = 0.0;
    bool hit = false;
    double latency() const { return end - start; }
};

/** Cells by which the cache hits in @p cells differ from @p seeded. */
std::uint64_t hitShareError(const std::vector<CellTiming> &cells,
                            std::uint64_t seeded);

/** Exact simulated counts summed over the cells a backend returned. */
struct CellCounts
{
    std::uint64_t cells = 0;
    std::uint64_t insts = 0;     ///< Metrics::insts (detail region)
    std::uint64_t cycles = 0;    ///< Metrics::cycles (detail region)
    std::uint64_t parked = 0;
    std::uint64_t unparked = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t sampledCells = 0;
    double ci95RelSum = 0.0;     ///< sum of ci95Half / meanIpc

    void add(const CellCounts &o);
};

/**
 * Times every runCell as the Runner sees it, derives the cell key
 * itself (in a `cell.key` span) for inner backends that want one, and
 * can perturb one result to prove the correctness checks fire.
 */
class TimedBackend : public ltp::ExecBackend
{
  public:
    TimedBackend(ltp::ExecBackendPtr inner, Tracer &tracer,
                 Clock::time_point epoch);

    std::string name() const override { return inner_->name(); }

    ltp::CellResult runCell(const ltp::CellKey &key,
                            const ltp::SimConfig &cfg,
                            const std::string &workload,
                            const ltp::RunLengths &lengths,
                            const ltp::SamplePlan &sampling) override;

    /** Put @p inner behind the decorator (between passes only: a
     *  repeated set-up replaces a workload's backend). */
    void rebind(ltp::ExecBackendPtr inner) { inner_ = std::move(inner); }

    /** Timings since the last take(), in completion order. */
    std::vector<CellTiming> take();

    /** Exact counts summed over every result returned so far. */
    CellCounts counts();

    /** Perturb the @p n-th (1-based) result from now on; 0 = never. */
    void injectMismatchAt(std::uint64_t n) { inject_at_.store(n); }

  private:
    ltp::ExecBackendPtr inner_;
    Tracer &tracer_;
    Clock::time_point epoch_;
    std::atomic<std::uint64_t> calls_{0};
    std::atomic<std::uint64_t> inject_at_{0};
    std::mutex mutex_;
    std::vector<CellTiming> timings_;
    CellCounts counts_;
};

/** Local, span-instrumented cell computation (see file comment). */
class DecomposedBackend : public ltp::ExecBackend
{
  public:
    explicit DecomposedBackend(Tracer &tracer) : tracer_(tracer) {}

    std::string name() const override { return "local"; }

    ltp::CellResult runCell(const ltp::CellKey &key,
                            const ltp::SimConfig &cfg,
                            const std::string &workload,
                            const ltp::RunLengths &lengths,
                            const ltp::SamplePlan &sampling) override;

  private:
    ltp::Metrics full(const ltp::SimConfig &cfg, const std::string &kernel,
                      const ltp::RunLengths &lengths);
    ltp::Metrics sampled(const ltp::SimConfig &cfg,
                         const std::string &kernel,
                         const ltp::SamplePlan &plan);

    Tracer &tracer_;
};

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // LTP_PERFBENCH_HARNESS_HH
