/**
 * @file
 * Replay front-end: a Workload backed by a recorded `.lttr` trace, plus
 * the `trace:<path>` workload-name convention that lets recorded traces
 * flow through every string-keyed surface (makeKernel, SweepSpec job
 * kernel lists, scenario files) exactly like DSL kernels.
 *
 * name() returns the *source kernel name* embedded in the trace header,
 * so a replayed run produces Metrics bit-identical to the execute-mode
 * run it was recorded from — including the `workload` field.
 *
 * Loaded traces are cached process-wide (thread-safe), so a sweep that
 * replays the same file across many (config, seed) cells reads and
 * validates it once.
 */

#ifndef LTP_TRACE_TRACE_WORKLOAD_HH
#define LTP_TRACE_TRACE_WORKLOAD_HH

#include <memory>
#include <string>

#include "trace/trace_file.hh"
#include "trace/workload.hh"

namespace ltp {

/** Prefix turning a trace file path into a workload name. */
inline constexpr const char *kTraceNamePrefix = "trace:";

/** True if @p name is a `trace:<path>` workload name. */
bool isTraceName(const std::string &name);

/** The `trace:<path>` workload name for @p path. */
std::string traceName(const std::string &path);

/** The file path inside a `trace:<path>` workload name. */
std::string tracePath(const std::string &name);

/** Human label for result rows: the file stem ("dir/a.lttr" -> "a"). */
std::string traceLabel(const std::string &path);

/**
 * Load (via the process-wide cache) and validate @p path.
 * @throws std::runtime_error naming the path and defect.
 */
std::shared_ptr<const TraceReader> loadTraceCached(
    const std::string &path);

/** A Workload replaying one recorded trace. */
class TraceWorkload : public Workload
{
  public:
    explicit TraceWorkload(std::shared_ptr<const TraceReader> trace)
        : trace_(std::move(trace))
    {
    }

    /** The source kernel name embedded in the trace header. */
    std::string name() const override { return trace_->info().kernel; }

    /**
     * Rewind to record 0.  The stream is fixed at record time, so
     * @p seed cannot re-randomize it; a mismatch against the recorded
     * seed warns (the replay then reproduces the *recorded* seed).
     */
    void reset(std::uint64_t seed) override;

    /** Next record; fatal() with re-record guidance when exhausted. */
    MicroOp next() override;

    /** O(1) seek past @p n records (random-access trace storage). */
    void skip(std::uint64_t n) override { pos_ += n; }

    /** Shares the loaded records; copies only the cursor. */
    WorkloadPtr
    clone() const override
    {
        return std::make_unique<TraceWorkload>(*this);
    }

  private:
    std::shared_ptr<const TraceReader> trace_;
    std::uint64_t pos_ = 0;
};

/**
 * Instantiate a replay workload for `trace:<path>` (or a bare path).
 * @throws std::runtime_error on unreadable or malformed files.
 */
WorkloadPtr makeTraceWorkload(const std::string &nameOrPath);

} // namespace ltp

#endif // LTP_TRACE_TRACE_WORKLOAD_HH
