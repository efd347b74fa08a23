/**
 * @file
 * Small statistics package: counters, means, time-weighted occupancy
 * integrators and histograms, loosely modelled on gem5's Stats.
 *
 * Figures 1c and 7 of the paper report *average resources in use per
 * cycle*; @ref ltp::OccupancyStat integrates an occupancy value over
 * cycles so those averages are exact, not sampled.
 *
 * All stats support reset(), which the simulator invokes at the end of
 * pipeline warm-up so only the detailed region is measured.
 */

#ifndef LTP_COMMON_STATS_HH
#define LTP_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace ltp {

/** Plain monotonic event counter. */
class Counter
{
  public:
    void operator++(int) { value_ += 1; }
    void operator+=(std::uint64_t n) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Mean of a stream of samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        count_ += 1;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Time-weighted occupancy integrator.
 *
 * Two usage styles, exactly equivalent when every change within a cycle
 * happens at the same timestamp:
 *
 *  - Timed: call set(level, now) whenever the occupancy changes; each
 *    call integrates the old level over the elapsed cycles.
 *  - Clocked: bindClock(&now) once, then call the untimed set/add/sub
 *    mutators freely — each one reads the bound cycle counter and
 *    integrates the old level up to it first.  This keeps structure
 *    code free of `now` plumbing *without* a per-cycle advance pass:
 *    a stat that does not change this cycle costs nothing (the core
 *    binds every structure stat to Core::now_ at construction).
 *
 * mean(now) returns the per-cycle average over the measured window.
 * Integration is exact either way — level * elapsed cycles — because
 * the level is piecewise constant between mutations, so deferring the
 * multiply to the next mutation (or to mean()) loses nothing.
 */
class OccupancyStat
{
  public:
    /** Change the current level at time @p now. */
    void
    set(std::int64_t level, Cycle now)
    {
        accumulate(now);
        level_ = level;
    }

    void add(std::int64_t d, Cycle now) { set(level_ + d, now); }
    void sub(std::int64_t d, Cycle now) { set(level_ - d, now); }

    /// @name Clocked style: bind once, then untimed mutators
    /// @{

    /**
     * Bind the cycle counter the untimed mutators integrate against.
     * Must happen before the first untimed mutation; the pointee must
     * outlive the stat and never move backwards.  Unbound stats fall
     * back to pure level tracking — integrate them explicitly with
     * advanceTo() (standalone structure tests do this).
     */
    void bindClock(const Cycle *clock) { clock_ = clock; }

    /** Explicitly integrate the current level up to @p now. */
    void advanceTo(Cycle now) { accumulate(now); }

    void
    set(std::int64_t level)
    {
        if (clock_)
            accumulate(*clock_);
        level_ = level;
    }

    void add(std::int64_t d) { set(level_ + d); }
    void sub(std::int64_t d) { set(level_ - d); }
    /// @}

    std::int64_t level() const { return level_; }

    /** Average level from the last reset until @p now. */
    double
    mean(Cycle now)
    {
        accumulate(now);
        Cycle elapsed = now - start_;
        return elapsed ? static_cast<double>(integral_) / elapsed : 0.0;
    }

    /** Restart the measurement window at @p now, keeping the level. */
    void
    reset(Cycle now)
    {
        integral_ = 0;
        start_ = now;
        last_ = now;
    }

  private:
    void
    accumulate(Cycle now)
    {
        sim_assert(now >= last_);
        integral_ += level_ * static_cast<std::int64_t>(now - last_);
        last_ = now;
    }

    std::int64_t level_ = 0;
    std::int64_t integral_ = 0;
    Cycle start_ = 0;
    Cycle last_ = 0;
    const Cycle *clock_ = nullptr; ///< untimed mutators' time source
};

/** Fixed-bucket histogram with overflow bucket. */
class Histogram
{
  public:
    /** @param buckets number of buckets; @param width bucket width. */
    explicit Histogram(int buckets = 16, std::uint64_t width = 1)
        : width_(width), counts_(buckets + 1, 0)
    {
        sim_assert(buckets > 0 && width > 0);
    }

    void
    sample(std::uint64_t v)
    {
        std::size_t b = v / width_;
        if (b >= counts_.size() - 1)
            b = counts_.size() - 1;
        counts_[b] += 1;
        total_ += 1;
        sum_ += v;
    }

    std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
    std::uint64_t total() const { return total_; }
    double mean() const { return total_ ? double(sum_) / total_ : 0.0; }

    void
    reset()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        total_ = 0;
        sum_ = 0;
    }

    std::string toString(const std::string &name) const;

  private:
    std::uint64_t width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

/** Ratio helper that is safe against zero denominators. */
inline double
safeDiv(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Percent change of @p value relative to @p base (paper-style deltas). */
inline double
pctDelta(double value, double base)
{
    return base != 0.0 ? (value / base - 1.0) * 100.0 : 0.0;
}

} // namespace ltp

#endif // LTP_COMMON_STATS_HH
