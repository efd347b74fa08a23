/**
 * @file
 * Simulation driver: wires workload(s) → core → memory, runs the
 * paper's three-phase staging (functional cache warm → detailed
 * pipeline warm → measured detail region), and extracts Metrics.
 *
 * Staging mirrors Section 4.1: "caches are warmed for 250M
 * instructions, followed by 100k instructions of detailed pipeline
 * warming, and then a detailed simulation of 10M instructions" — with
 * instruction counts scaled for the synthetic kernels, which reach
 * steady state quickly.
 *
 * Multiprogrammed SMT runs use `smt:<a>+<b>[+...]` workload names: one
 * member kernel (or `trace:<path>` replay) per hardware thread, each
 * with its own trace window and per-thread staging quota.  The detail
 * region ends when the *last* thread commits its quota; each thread's
 * own slice is measured the cycle it reaches its quota (the standard
 * fixed-instruction-sample methodology), reported in
 * Metrics::threads.  A thread that reaches its phase quota stops
 * fetching and drains while co-runners finish, so bounded `trace:`
 * members stay within their recorded fetch-ahead slack.  A
 * single-member name is bit-identical to running the member directly.
 */

#ifndef LTP_SIM_SIMULATOR_HH
#define LTP_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/ring.hh"
#include "cpu/core.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "trace/workload.hh"

namespace ltp {

/** Instruction staging plan for one run (per thread under SMT). */
struct RunLengths
{
    std::uint64_t funcWarm = 100000; ///< functional cache warm
    std::uint64_t pipeWarm = 10000;  ///< detailed, stats discarded
    std::uint64_t detail = 50000;    ///< measured region

    static RunLengths
    quick()
    {
        return RunLengths{30000, 4000, 20000};
    }

    /** Staging of the figure scenarios, `"lengths": "bench"` (scaled
     *  Section 4.1). */
    static RunLengths
    bench()
    {
        return RunLengths{60000, 5000, 30000};
    }
};

/// @name SMT workload-tuple names
///
/// `smt:graph_walk+dense_compute` names a multiprogrammed workload:
/// one member (kernel or `trace:<path>`) per hardware thread, joined
/// with '+'.  Like `trace:` names, the convention flows through every
/// string-keyed surface (SweepSpec kernels, scenario files, `ltp run`).
/// @{

/** Prefix of an SMT workload-tuple name. */
inline constexpr const char *kSmtNamePrefix = "smt:";

/** True if @p name is an `smt:<a>+<b>` workload-tuple name. */
bool isSmtName(const std::string &name);

/** The member workload names inside an smt: tuple, tid order. */
std::vector<std::string> smtMembers(const std::string &name);

/** The `smt:` tuple name for @p members (also their row label with
 *  the prefix stripped). */
std::string smtName(const std::vector<std::string> &members);

/// @}

/**
 * Ring-buffered trace window with random access (squash rewind).
 *
 * The window spans [oldest uncommitted, youngest fetched]: commit trims
 * the front, fetch extends the back.  With a finite ROB that span is
 * bounded by ROB + fetch queue + one fetch group, so the window is a
 * fixed-capacity ring and the bound is asserted — unbounded growth here
 * means retire stopped trimming (a simulator bug), not a big workload.
 * @p max_window 0 (infinite-ROB limit studies) lifts the cap.
 */
class TraceWindow : public InstSource
{
  public:
    TraceWindow(Workload &w, std::size_t max_window)
        : w_(w), max_window_(max_window),
          buf_(max_window ? max_window : 1024)
    {
    }

    MicroOp
    fetch(SeqNum seq) override
    {
        sim_assert(seq >= base_);
        while (seq >= base_ + buf_.size()) {
            sim_assert(max_window_ == 0 || buf_.size() < max_window_);
            buf_.push_back(w_.next());
        }
        return buf_[seq - base_];
    }

    void
    retire(SeqNum upto) override
    {
        while (base_ <= upto && !buf_.empty()) {
            buf_.pop_front();
            base_ += 1;
        }
    }

  private:
    Workload &w_;
    std::size_t max_window_; ///< 0 = uncapped (infinite ROB)
    Ring<MicroOp> buf_;
    SeqNum base_ = 0;
};

/**
 * Resolve a workload name into one member per hardware thread,
 * reconciling the tuple size with @p cfg.core.numThreads (which is
 * updated in place): an `smt:<a>+<b>` name carries one member per
 * context; a plain name runs on every context (homogeneous SMT).
 * @throws std::runtime_error on a tuple/threads mismatch.
 */
std::vector<std::string> resolveWorkloadMembers(SimConfig &cfg,
                                                const std::string &kernel);

/**
 * Run the detailed phases — pipeline warm (stats discarded) then the
 * measured fixed-instruction-sample detail region — on an
 * already-constructed core/memory pair, and extract the Metrics.
 *
 * This is the shared timing engine behind both a full `Simulator::run`
 * and each detailed sample of the interval-sampling controller
 * (src/sample/sampler.*): the core must be freshly warmed (functional
 * or checkpoint-restored state), and @p workloads provides per-thread
 * names for the report.  @p phase, when set, is called at the start of
 * each internal phase ("warmup", then "detail") for progress display.
 */
Metrics runDetailPhases(
    const SimConfig &cfg, Core &core, MemSystem &mem,
    const std::vector<Workload *> &workloads, std::uint64_t pipe_warm,
    std::uint64_t detail,
    const std::function<void(const char *)> &phase = {});

/**
 * The detail-region stats harvest shared by full and sampled runs:
 * thread tid's slice closed at @p cross_cycles[tid] with
 * @p cross_insts[tid] committed, and the region is the last
 * @p detail_cycles cycles of @p core.  @p workloads supplies the
 * per-thread names.
 */
Metrics extractMetrics(const SimConfig &cfg, Core &core, MemSystem &mem,
                       const std::vector<Workload *> &workloads,
                       const std::vector<Cycle> &cross_cycles,
                       const std::vector<std::uint64_t> &cross_insts,
                       Cycle detail_cycles);

/**
 * Owns one complete simulation instance (memory, core, traces,
 * oracles — one workload pipeline per hardware thread).
 * Construct, run(), read the metrics; or use the one-shot helper.
 */
class Simulator
{
  public:
    Simulator(const SimConfig &cfg, const std::string &kernel,
              const RunLengths &lengths = RunLengths{});

    /** Execute all three phases and return the detail-region metrics. */
    Metrics run();

    /** One-shot convenience used by benches and tests. */
    static Metrics runOnce(const SimConfig &cfg, const std::string &kernel,
                           const RunLengths &lengths = RunLengths{});

    /// @name Mid-run access for tests and the inspector example
    /// @{
    Core &core() { return *core_; }
    MemSystem &mem() { return *mem_; }
    const OracleClassification &oracle(int tid = 0) const
    {
        return oracles_[std::size_t(tid)];
    }
    /// @}

  private:
    SimConfig cfg_;
    RunLengths lengths_;
    std::vector<WorkloadPtr> workloads_;   ///< one per thread
    std::vector<OracleClassification> oracles_;
    std::unique_ptr<MemSystem> mem_;
    std::vector<std::unique_ptr<TraceWindow>> sources_;
    std::unique_ptr<Core> core_;
};

} // namespace ltp

#endif // LTP_SIM_SIMULATOR_HH
