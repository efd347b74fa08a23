/**
 * @file
 * First-order McPAT/CACTI-style energy model for the structures the
 * paper's ED2P claim covers: IQ + RF + the LTP support structures
 * (queue, UIT, hit/miss predictor, ticket CAM).
 *
 * Scaling laws (the *relative* behaviour is what matters for Fig 10):
 *  - IQ wakeup: one tag broadcast across all entries per completing
 *    instruction => energy ∝ entries per broadcast (CAM comparators,
 *    entries × issue-width total, paper Section 5.5).
 *  - IQ select: ∝ entries per issued instruction.
 *  - IQ entry read/write: ∝ sqrt(entries) per dispatch/issue (RAM
 *    bitline/wordline scaling).
 *  - RF port access: ∝ sqrt(registers) per operand read / result write.
 *  - LTP queue: narrow-port RAM FIFO, ∝ sqrt(entries) per push/pop with
 *    a port-count area factor — no wakeup CAM in NU-only mode.
 *  - Ticket CAM (NR modes only): ∝ entries per ticket broadcast.
 *  - Static leakage ∝ entries (× enabled fraction for the power-gated
 *    LTP structures, Section 5.2).
 *
 * Absolute numbers are calibrated loosely to the paper's citation that
 * the IQ consumes ~18% of core energy [Gowan et al.]; only ratios and
 * percent deltas are reported (the `ed2p` scenario view).
 */

#ifndef LTP_ENERGY_ENERGY_MODEL_HH
#define LTP_ENERGY_ENERGY_MODEL_HH

#include <cstdint>
#include <string>

namespace ltp {

/** Structure sizes and activity counts for one simulation run. */
struct EnergyInputs
{
    std::uint64_t cycles = 0;

    // structure sizes
    int iqEntries = 64;
    int issueWidth = 6;
    int totalRegs = 256; ///< INT + FP available registers
    int ltpEntries = 0;  ///< 0 => no LTP
    int ltpPorts = 0;
    int uitEntries = 0;
    bool ltpCam = false; ///< NR modes need the ticket CAM

    // activity
    std::uint64_t iqInserts = 0;
    std::uint64_t iqIssues = 0;
    std::uint64_t wakeupBroadcasts = 0; ///< completions
    std::uint64_t rfReads = 0;
    std::uint64_t rfWrites = 0;
    std::uint64_t ltpPushes = 0;
    std::uint64_t ltpPops = 0;
    std::uint64_t ticketBroadcasts = 0;
    std::uint64_t uitLookups = 0;
    std::uint64_t uitInserts = 0;
    std::uint64_t predLookups = 0;
    double ltpEnabledFraction = 0.0; ///< leakage gating (Section 5.2)
};

/** Energy breakdown in picojoules. */
struct EnergyBreakdown
{
    double iq = 0.0;
    double rf = 0.0;
    double ltp = 0.0; ///< queue + UIT + predictor + ticket CAM

    double total() const { return iq + rf + ltp; }

    /** Energy-delay-squared product (pJ * cycles^2). */
    double
    ed2p(std::uint64_t cycles) const
    {
        return total() * double(cycles) * double(cycles);
    }

    /** Energy-delay product. */
    double
    edp(std::uint64_t cycles) const
    {
        return total() * double(cycles);
    }

    std::string toString() const;
};

/** Evaluate the model. */
EnergyBreakdown computeEnergy(const EnergyInputs &in);

} // namespace ltp

#endif // LTP_ENERGY_ENERGY_MODEL_HH
