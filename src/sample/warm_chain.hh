/**
 * @file
 * The functional warming chain of a sampled run, shared by every
 * config that samples the same stream with the same warming inputs.
 *
 * A chain is one FastForward engine over its own MemSystem.  It
 * retires every op of the streams functionally and, at each sample
 * start S_i (sample_plan.hh), settles and captures a *point*: a copy
 * of the hierarchy, the per-thread predictor images (checkpoint.hh),
 * and a clone of each thread's generator.  The chain warms through the
 * one functional warm, MemSystem::warmAccess, so point i's hierarchy
 * is the one a full run with a functional warm of S_i ops would start
 * its pipeline warm from.  Nothing detailed ever writes back, so a
 * chain is a pure function of its key:
 *
 *   workloadIdentity of each member, seed, plan, memConfigJson(mem),
 *   bpTableBits/btbEntries, and the CRC of a `--from` checkpoint.
 *
 * The `baseline` and `ltpProposal` cells of a kernel differ only in
 * core-side parameters, so they share one key, one chain and
 * therefore identical sample windows (matched pairs).
 *
 * Cooperative execution.  A process-wide registry maps each key to
 * its live chain; a Sampler joins with one task per sample, ready
 * once that sample's point exists.  Each participant's thread loops:
 * advance the chain if nobody is, else run any ready task of any
 * participant, else wait — and returns once its own tasks are done.
 * Every task runs on its own copy of the point (hierarchy and stream
 * clones), whichever thread runs it, so results never depend on
 * thread count, join order or sharing.
 *
 * Point lifetime.  A point is copied for each claim of its task but
 * the last, which takes the point itself: a lone participant pays one
 * hierarchy copy per sample, a pair two.  A taken point can no longer
 * serve a newcomer from sample 0, so the chain then stops taking
 * joiners: a later request for the key — concurrent or not — builds a
 * new chain, which computes the same points.  While kMaxLivePoints
 * points wait for claims the chain does not advance, so its memory
 * stays bounded however far its tasks lag.  A finished task hands its
 * point back as spare storage for the next capture or copy: a chain
 * allocates a handful of hierarchies, not one per sample, which keeps
 * the per-thread malloc arenas of a threaded sweep from growing.  The
 * last participant out frees what is left.  Nothing is retained
 * across sweeps.
 */

#ifndef LTP_SAMPLE_WARM_CHAIN_HH
#define LTP_SAMPLE_WARM_CHAIN_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mem/mem_system.hh"
#include "sample/checkpoint.hh"
#include "sample/fast_forward.hh"
#include "sample/sample_plan.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "trace/workload.hh"

namespace ltp {

/** Progress callback: called at each phase boundary with a label like
 *  "fast-forward 3/8", "warmup 3/8", "sample 3/8". */
using PhaseFn = std::function<void(const std::string &)>;

/** The chain's state at one sample start. */
struct WarmPoint
{
    MemSystem mem;                    ///< settled hierarchy at S_i
    std::vector<ThreadImage> threads; ///< positions and predictors
    std::vector<WorkloadPtr> streams; ///< per-thread generators at S_i
};

/** What a chain is a function of. */
struct ChainSpec
{
    SimConfig cfg; ///< seed, mem, predictor geometry, resolved threads
    std::vector<std::string> members; ///< one workload name per thread
    std::string workload;             ///< run name @p from must carry
    SamplePlan plan;
    std::shared_ptr<const Checkpoint> from; ///< start state, or null
    std::uint32_t fromCrc = 0;              ///< CRC of @p from's encoding

    /** The registry key: every input the chain's points depend on. */
    std::string key() const;

    /** Per-thread stream position where sample @p i starts (S_i). */
    std::uint64_t sampleStart(int i) const;
};

/** Process-wide chain accounting (tests). */
struct ChainStats
{
    std::size_t built = 0; ///< chains ever built (one per warming pass)
    std::size_t liveChains = 0;
};

/** One live warming chain and its participants (see the file comment). */
class WarmChain
{
  public:
    /** Unclaimed points at which a chain stops advancing. */
    static constexpr int kMaxLivePoints = 2;

    /** One Sampler's membership: a task per sample of the plan. */
    struct Participant
    {
        /** Run sample @p i on @p point, the task's own copy, reporting
         *  sub-phases through the executing thread's callback.  May
         *  run on any thread. */
        std::function<Metrics(int i, WarmPoint &point,
                              const std::function<void(const char *)> &)>
            run;
        std::vector<Metrics> results; ///< indexed by sample
        std::exception_ptr error;     ///< the first task failure
        int next = 0;                 ///< first unclaimed sample
        int running = 0;              ///< claimed, not yet finished
        int pending = 0;              ///< samples not yet finished
    };

    explicit WarmChain(ChainSpec spec);

    /**
     * Enroll @p me in the live chain for @p spec's key, or in a new
     * one registered under it when none takes joiners.
     */
    static std::shared_ptr<WarmChain> join(ChainSpec spec,
                                           Participant &me);

    /**
     * Run the cooperative loop until all of @p me's tasks are done,
     * then leave.  @p phase is only ever called on this thread.
     * @throws the chain's or @p me's first failure.
     */
    void participate(Participant &me, const PhaseFn &phase);

    /** The engine (valid once a participant has returned). */
    const FastForward &fastForward() const { return *ff_; }

    static ChainStats stats();

  private:
    /** A produced point and the participants yet to claim its task. */
    struct Slot
    {
        std::unique_ptr<WarmPoint> point; ///< null once taken or freed
        int users = 0;
    };

    /** Capture point @p i into @p into's storage, if any (advancing
     *  thread, outside the lock). */
    std::unique_ptr<WarmPoint> produce(int i,
                                       std::unique_ptr<WarmPoint> into);

    /** A spare point's storage, or null (chain lock held). */
    std::unique_ptr<WarmPoint> spare();

    /** Claim the lowest-indexed ready task, @p me's first on a tie. */
    bool claim(Participant &me, Participant **owner, int *index);

    /** Claim @p slot's point for one task: a copy, or the point itself
     *  on its last claim (chain lock held). */
    std::unique_ptr<WarmPoint> take(Slot &slot);

    /** Drop @p slot's point (chain lock held). */
    std::unique_ptr<WarmPoint> release(Slot &slot);

    void leave(Participant &me);

    ChainSpec spec_;
    std::string key_;
    std::unique_ptr<MemSystem> mem_; ///< built by the first advance
    std::unique_ptr<FastForward> ff_;

    std::mutex mutex_; ///< after the registry's, when both are held
    std::condition_variable cv_;
    std::vector<Slot> slots_; ///< one per produced point
    int live_ = 0;            ///< slots still holding their point
    std::vector<Participant *> participants_;
    std::vector<std::unique_ptr<WarmPoint>> spare_; ///< finished tasks
    bool advancing_ = false;
    bool closed_ = false; ///< a point was taken: no more joiners
    std::exception_ptr error_;
};

} // namespace ltp

#endif // LTP_SAMPLE_WARM_CHAIN_HH
