/**
 * @file
 * Timer-based DRAM monitor — Section 5.2 "Runtime Management".
 *
 * "On a demand access that miss in L3, a timer (set to the DRAM
 *  latency) is started or restarted, and LTP is enabled.  If the timer
 *  expires, LTP is turned off [power gated]."
 *
 * This keeps compute-bound phases (where *every* instruction misses in
 * the UIT and would be parked pointlessly) from paying LTP overheads —
 * the bottom row of Figure 7 reports the resulting enabled fraction.
 */

#ifndef LTP_LTP_MONITOR_HH
#define LTP_LTP_MONITOR_HH

#include <algorithm>

#include "common/stats.hh"
#include "common/types.hh"

namespace ltp {

/** LTP on/off controller driven by demand DRAM misses. */
class LtpMonitor
{
  public:
    /**
     * @param use_timer false => LTP is always on (the limit study keeps
     *                  the monitor, but tests use this to isolate it)
     * @param timeout   timer duration, nominally the DRAM latency
     */
    LtpMonitor(bool use_timer, Cycle timeout);

    /** Demand access missed in the L3: (re)arm the timer. */
    void
    onDramDemandMiss(Cycle now)
    {
        settle(now);
        deadline_ = now + timeout_;
        if (on_.level() == 0)
            on_.set(1, now);
    }

    /** Is LTP enabled at cycle @p now? */
    bool
    enabled(Cycle now) const
    {
        return !use_timer_ || now < deadline_;
    }

    /**
     * The cycle enabled() next changes on its own: the armed timer's
     * deadline, or kCycleNever once it has expired (only a DRAM miss
     * re-enables LTP after that).
     */
    Cycle
    nextToggle(Cycle now) const
    {
        return use_timer_ && deadline_ > now ? deadline_ : kCycleNever;
    }

    /** Fraction of cycles LTP was powered on (Fig 7 bottom). */
    double
    enabledFraction(Cycle now)
    {
        settle(now);
        return on_.mean(now);
    }

    void
    resetStats(Cycle now)
    {
        settle(now);
        on_.reset(now);
        floor_ = now;
    }

    Cycle timeout() const { return timeout_; }

  private:
    /**
     * Record the pending enable→disable edge, if any, at the cycle it
     * actually happened.  The enabled level is piecewise constant —
     * it rises only at a miss (rearm) and falls only at the deadline —
     * so settling the fall edge lazily before any rearm or read makes
     * the integral exactly equal to the old per-cycle sampling, with
     * no work at all on the per-cycle path.
     */
    void
    settle(Cycle now)
    {
        if (use_timer_ && deadline_ <= now && on_.level() == 1)
            on_.set(0, std::max(deadline_, floor_));
    }

    bool use_timer_;
    Cycle timeout_;
    Cycle deadline_ = 0;
    Cycle floor_ = 0; ///< last resetStats cycle (edge clamp)
    OccupancyStat on_;
};

} // namespace ltp

#endif // LTP_LTP_MONITOR_HH
