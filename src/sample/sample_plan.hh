/**
 * @file
 * Interval-sampling plan: the repeating fast-forward / warmup / detail
 * period of a sampled simulation (SMARTS-style systematic sampling).
 *
 * A sampled run replaces the single long detail region with
 * `samples` short ones at fixed stream positions:
 *
 *   [ ff | warm | detail ] [ ff | warm | detail ] ... x samples
 *
 *   sample i starts at S_i = start + (i+1)*ff + i*(warm + detail)
 *
 * The positions depend only on the plan (and a `--from` checkpoint's
 * start), never on the config, so every config sampling a workload
 * measures the same windows (matched pairs).  One functional warming
 * chain (warm_chain.hh) retires the whole stream — registers, memory
 * image, branch-predictor training, no pipeline timing — and captures
 * the warmed state at each S_i; each sample restores that state into
 * a fresh detailed core, runs `warm` ops with stats discarded, then
 * measures `detail` ops.  Per-sample IPCs aggregate into a mean and a
 * Student-t 95% confidence interval (Metrics::sampling).
 *
 * The plan is deliberately *not* part of SimConfig: sampling is a
 * measurement strategy, not an architecture under test.  It joins the
 * result-cache key separately (cellKeyFor's `sampling:` line) so a
 * sampled run can never alias a full-detail run of the same config.
 */

#ifndef LTP_SAMPLE_SAMPLE_PLAN_HH
#define LTP_SAMPLE_SAMPLE_PLAN_HH

#include <cstdint>
#include <string>

namespace ltp {

/** The repeating period of a sampled run (per thread under SMT). */
struct SamplePlan
{
    std::uint64_t fastForward = 0; ///< functional-only instructions
    std::uint64_t warmup = 0;      ///< detailed, stats discarded
    std::uint64_t detail = 0;      ///< measured instructions
    int samples = 0;               ///< 0 = sampling disabled

    bool enabled() const { return samples > 0; }

    /** Span of one period, in per-thread instructions. */
    std::uint64_t
    period() const
    {
        return fastForward + warmup + detail;
    }

    /** Canonical `ff/warm/detail x samples` spelling (cache keys,
     *  progress lines, error messages). */
    std::string toString() const;

    /** Default plan for `ltp sample` when no flags are given. */
    static SamplePlan
    defaults()
    {
        return SamplePlan{40000, 2000, 10000, 8};
    }
};

} // namespace ltp

#endif // LTP_SAMPLE_SAMPLE_PLAN_HH
