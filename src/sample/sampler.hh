/**
 * @file
 * Interval-sampling controller: runs a sampled simulation's detailed
 * samples from a shared warming chain and aggregates the per-sample
 * Metrics into a mean IPC with a Student-t 95% confidence interval
 * (Metrics::sampling).
 *
 * Sample i (0-based) measures the detail region starting at the fixed
 * per-thread stream position
 *
 *   S_i = start + (i+1)*ff + i*(warmup + detail)
 *
 * for every config, where `start` is 0 or a restored checkpoint's
 * position.  The positions, and the warmed state at them, come from
 * one functional warming chain (warm_chain.hh) that this Sampler
 * joins: every config with the same warming inputs (members, seed,
 * plan, memory config, predictor geometry) measures identical windows
 * from identical state, so window-placement noise cancels in a
 * config-vs-config ratio (matched-pair sampling: SMARTS, ISCA 2003;
 * SimFlex, SIGMETRICS 2006).
 *
 * Each sample is a task: a *fresh* Core over the task's own copy of
 * the chain's point i (hierarchy, predictor image, stream clones)
 * rebuilds pipeline state with the warmup ops (stats discarded), then
 * measures.  Nothing flows back into the chain, so a sample's
 * fetch-ahead never moves a later sample.
 * Tasks of one run may execute on any participant thread of the
 * chain; the Metrics are the same either way.
 */

#ifndef LTP_SAMPLE_SAMPLER_HH
#define LTP_SAMPLE_SAMPLER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ltp/oracle.hh"
#include "sample/checkpoint.hh"
#include "sample/fast_forward.hh"
#include "sample/sample_plan.hh"
#include "sample/warm_chain.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"

namespace ltp {

/** One sampled run: a participant of its key's warming chain. */
class Sampler
{
  public:
    /** @throws std::runtime_error unless @p plan.enabled() with a
     *  nonzero detail length. */
    Sampler(const SimConfig &cfg, const std::string &kernel,
            const SamplePlan &plan);

    /**
     * Start from an architectural checkpoint instead of stream
     * position 0: the chain seeks each thread's stream to the stored
     * position and installs the predictor/memory images.  Must be
     * called before run(); the checkpoint's content CRC (sealedCrc)
     * joins the chain key.
     * @throws std::runtime_error (from run()) when the checkpoint does
     *         not match this run (workload, seed, geometry).
     */
    void restoreFrom(const Checkpoint &ckpt);

    /**
     * Execute the sampling schedule and aggregate.  @p phase sees
     * "fast-forward i/n" while this thread advances the chain or
     * waits on it, then "warmup i/n" / "sample i/n" for each sample
     * task this thread runs; it is only called on this thread.
     */
    Metrics run(const PhaseFn &phase = {});

    /** One-shot convenience mirroring Simulator::runOnce. */
    static Metrics runOnce(const SimConfig &cfg,
                           const std::string &kernel,
                           const SamplePlan &plan,
                           const PhaseFn &phase = {});

    /** The warming chain this run joins (its key and positions). */
    ChainSpec chainSpec() const;

    /// @name After run(): the chain's engine and the sample starts
    /// @{
    const FastForward &fastForward() const { return chain_->fastForward(); }
    /** Per-thread stream position each sample started at (S_i). */
    const std::vector<std::uint64_t> &sampleStarts() const
    {
        return starts_;
    }
    /// @}

  private:
    /** Sample @p i on @p point, the task's own copy (any participant
     *  thread). */
    Metrics runSample(int i, WarmPoint &point,
                      const std::function<void(const char *)> &phase);

    SimConfig cfg_;
    SamplePlan plan_;
    std::string kernel_;
    std::string workload_name_;
    std::vector<std::string> members_;
    std::vector<OracleClassification> oracles_;
    std::shared_ptr<const Checkpoint> from_;
    std::uint32_t from_crc_ = 0;
    std::shared_ptr<WarmChain> chain_;
    std::vector<std::uint64_t> starts_;
    bool ran_ = false;
};

} // namespace ltp

#endif // LTP_SAMPLE_SAMPLER_HH
