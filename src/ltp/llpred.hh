/**
 * @file
 * Two-level load hit/miss (long-latency) predictor — Appendix A.
 *
 * "For variable-latency instructions (e.g., loads) we use a two-level
 *  hit/miss predictor that accesses a history table with the last four
 *  outcomes of the PC and then hashes these bits with the PC to access
 *  the prediction table."
 *
 * The prediction table holds 2-bit saturating counters.  The paper
 * reports the predictor costs < 2 percentage points of performance
 * versus an oracle; `core.ltp.classifier` selects either (the limit
 * study scenarios, e.g. scenarios/fig6_*.json, use the oracle).
 */

#ifndef LTP_LTP_LLPRED_HH
#define LTP_LTP_LLPRED_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace ltp {

/** Two-level PC+history long-latency predictor. */
class LoadLatencyPredictor
{
  public:
    LoadLatencyPredictor(int history_entries = 1024,
                         int table_entries = 4096);

    /** Predict whether the load at @p pc will be long latency. */
    bool predictLong(Addr pc);

    /** Train with the observed outcome. */
    void update(Addr pc, bool was_long);

    /** Fraction of correct predictions since reset. */
    double accuracy() const;

    Counter predictions;
    Counter correct;
    Counter mispredicts;

    void resetStats();

  private:
    std::size_t historyIndex(Addr pc) const;
    std::size_t tableIndex(Addr pc) const;

    std::vector<std::uint8_t> history_;  ///< 4-bit outcome shift registers
    std::vector<std::uint8_t> counters_; ///< 2-bit saturating counters
    std::vector<std::uint8_t> lastPrediction_; ///< for accuracy stats
};

} // namespace ltp

#endif // LTP_LTP_LLPRED_HH
