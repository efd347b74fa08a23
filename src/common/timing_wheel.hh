/**
 * @file
 * Hierarchical timing wheel for commutative simulator events.
 *
 * A two-level wheel (256 one-cycle slots backed by 256 slots of 256
 * cycles, with an overflow list beyond that) replaces a binary min-heap
 * for event streams whose same-cycle processing order is immaterial:
 * schedule and fire are O(1) amortised instead of O(log n), and the
 * per-tick idle cost is a single slot load — no comparator, no sift.
 *
 * Events due at or before the current cycle are deferred to the next
 * one, matching the heap-based scheduler's behaviour of only draining
 * events at the top of each tick (an event scheduled *during* cycle N
 * for cycle N is observed at N+1).
 *
 * NOT suitable for events whose equal-timestamp pop order is
 * observable (e.g. width-budgeted completion draining): the wheel
 * fires same-cycle events in slot insertion order, which differs from
 * a heap's tie order.
 */

#ifndef LTP_COMMON_TIMING_WHEEL_HH
#define LTP_COMMON_TIMING_WHEEL_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace ltp {

template <typename Ev>
class TimingWheel
{
  public:
    /** Schedule @p ev to fire at cycle max(@p when, now + 1). */
    void
    schedule(Cycle when, const Ev &ev)
    {
        if (when <= now_)
            when = now_ + 1;
        place(when, ev);
        size_ += 1;
    }

    /**
     * Advance to cycle @p now (monotone), invoking @p fn on every
     * event that comes due.  Same-cycle events fire in insertion
     * order.
     */
    template <typename Fn>
    void
    advanceTo(Cycle now, Fn &&fn)
    {
        sim_assert(now >= now_);
        while (now_ < now) {
            now_ += 1;
            if ((now_ & kMask) == 0)
                cascade();
            auto &slot = l0_[now_ & kMask];
            for (Entry &e : slot) {
                size_ -= 1;
                fn(e.ev);
            }
            slot.clear();
        }
    }

    /**
     * Lower bound on the cycle of the next event to fire, capped at
     * @p bound (returned when nothing is due in (now, bound)).  Scans
     * level-0 slots only up to the next level-1 epoch edge and returns
     * that edge itself: the cascade there may bring events down, so
     * the bound is conservative at epoch edges and costs at most one
     * epoch of slot loads.
     */
    Cycle
    nextDue(Cycle bound) const
    {
        if (size_ == 0)
            return bound;
        for (Cycle c = now_ + 1; c < bound; ++c) {
            if ((c & kMask) == 0 || !l0_[c & kMask].empty())
                return c;
        }
        return bound;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    Cycle now() const { return now_; }

  private:
    struct Entry
    {
        Cycle when;
        Ev ev;
    };

    static constexpr Cycle kSlots = 256;
    static constexpr Cycle kMask = kSlots - 1;
    static constexpr Cycle kHorizon = kSlots * kSlots;

    void
    place(Cycle when, const Ev &ev)
    {
        // Level 1 holds strictly *future* epochs only: an event a full
        // revolution ahead shares its slot index with the current
        // (already-cascaded) epoch and would fire a revolution late.
        if (when - now_ < kSlots)
            l0_[when & kMask].push_back(Entry{when, ev});
        else if ((when >> 8) - (now_ >> 8) < kSlots)
            l1_[(when >> 8) & kMask].push_back(Entry{when, ev});
        else
            overflow_.push_back(Entry{when, ev});
    }

    /** Entering a new level-1 epoch: spill its slot down to level 0
     *  (and, once per full revolution, re-place the overflow list). */
    void
    cascade()
    {
        auto &slot = l1_[(now_ >> 8) & kMask];
        for (const Entry &e : slot)
            l0_[e.when & kMask].push_back(e);
        slot.clear();
        if ((now_ & (kHorizon - 1)) == 0 && !overflow_.empty()) {
            std::vector<Entry> spill;
            spill.swap(overflow_);
            for (const Entry &e : spill)
                place(e.when, e.ev);
        }
    }

    Cycle now_ = 0;
    std::size_t size_ = 0;
    std::vector<Entry> l0_[kSlots];
    std::vector<Entry> l1_[kSlots];
    std::vector<Entry> overflow_;
};

} // namespace ltp

#endif // LTP_COMMON_TIMING_WHEEL_HH
