/**
 * @file
 * Oracle instruction classification for the limit study (Section 4).
 *
 * "For the limit study we model an infinite-sized LTP with perfect
 *  instruction classification ... and an oracle to predict long-latency
 *  instructions."
 *
 * The oracle replays the (deterministic) trace once through a
 * functional copy of the memory hierarchy to find the long-latency
 * loads, then computes per-dynamic-instruction:
 *
 *  - URGENT:   ancestor of a long-latency instruction within the
 *              urgency window (backward dataflow closure over register
 *              dependences, killed by redefinition);
 *  - NONREADY: descendant of a long-latency instruction while that
 *              value is still "in flight" (forward closure bounded by
 *              the readiness window, approximating the instruction
 *              window lifetime of the miss);
 *  - LONGLAT:  the long-latency seeds themselves (LLC-missing loads and
 *              fixed-long-latency div/sqrt ops).
 */

#ifndef LTP_LTP_ORACLE_HH
#define LTP_LTP_ORACLE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mem/mem_system.hh"
#include "trace/workload.hh"

namespace ltp {

/**
 * Per-dynamic-instruction oracle classification flags.
 *
 * A cheap read-only handle: copies share one immutable flag array
 * (limit-study sweeps hand the same classification to many cells and
 * Runner threads), while each handle keeps its own lookup base, so
 * setBase on one holder never moves another's lookups.
 */
class OracleClassification
{
  public:
    static constexpr std::uint8_t kUrgent = 1 << 0;
    static constexpr std::uint8_t kNonReady = 1 << 1;
    static constexpr std::uint8_t kLongLat = 1 << 2;

    OracleClassification() = default;

    /** Wrap computed flags (one byte per trace position). */
    explicit OracleClassification(
        std::shared_ptr<const std::vector<std::uint8_t>> flags)
        : flags_(std::move(flags))
    {
    }

    /**
     * Shift lookups by a trace offset: the simulator's seq 0 maps to
     * trace position @p base (instructions before it were consumed by
     * the functional cache warm-up).
     */
    void setBase(SeqNum base) { base_ = base; }

    bool urgent(SeqNum seq) const { return flag(seq, kUrgent); }
    bool nonReady(SeqNum seq) const { return flag(seq, kNonReady); }
    bool longLatency(SeqNum seq) const { return flag(seq, kLongLat); }

    bool valid() const { return size() != 0; }
    std::size_t size() const { return flags_ ? flags_->size() : 0; }

  private:
    bool
    flag(SeqNum seq, std::uint8_t bit) const
    {
        SeqNum pos = seq + base_;
        return pos < size() && ((*flags_)[pos] & bit);
    }

    std::shared_ptr<const std::vector<std::uint8_t>> flags_;
    SeqNum base_ = 0;
};

/** Tuning knobs of the oracle pre-pass. */
struct OracleParams
{
    /** Ancestor window: how far ahead (in dynamic instructions) a
     *  long-latency consumer may be for this producer to count as
     *  Urgent.  ~2x ROB covers cross-iteration address chains. */
    int urgencyWindow = 512;
    /** Descendant window: how long (in dynamic instructions) a
     *  long-latency value keeps its consumers Non-Ready, approximating
     *  the miss lifetime inside the instruction window. */
    int readinessWindow = 512;
};

/**
 * Run the oracle pre-pass over the first @p n instructions of
 * (@p workload, @p seed), using a fresh hierarchy built from @p mem_cfg.
 */
OracleClassification
oracleClassify(Workload &workload, std::uint64_t seed, std::uint64_t n,
               const MemConfig &mem_cfg,
               const OracleParams &params = OracleParams{});

} // namespace ltp

#endif // LTP_LTP_ORACLE_HH
