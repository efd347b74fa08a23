/**
 * @file
 * Experiment helpers: staging flags, running one config across kernel
 * lists, and group-averaging the results (the paper reports
 * mlp-sensitive / mlp-insensitive averages).
 *
 * These are thin wrappers over the sharded Runner (sim/runner.hh),
 * which also owns ResultGrid; pass threads > 1 to fan a suite out
 * across cores with bit-identical results.
 */

#ifndef LTP_SIM_EXPERIMENT_HH
#define LTP_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "common/cli.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"

namespace ltp {

/** Apply the standard --warm/--pipewarm/--detail staging flags onto
 *  @p dflt (shared by every `ltp` simulation command). */
RunLengths stagingLengths(const Cli &cli, const RunLengths &dflt);

/** Run @p cfg on every kernel in @p kernels, @p threads at a time. */
std::vector<Metrics> runSuite(const SimConfig &cfg,
                              const std::vector<std::string> &kernels,
                              const RunLengths &lengths, int threads = 1);

/** Run @p cfg on @p kernels and return the group average. */
Metrics runGroupAverage(const SimConfig &cfg,
                        const std::vector<std::string> &kernels,
                        const std::string &label, const RunLengths &lengths,
                        int threads = 1);

/** "∞" for kInfiniteSize, the number otherwise (table axis labels). */
std::string sizeLabel(int entries);

} // namespace ltp

#endif // LTP_SIM_EXPERIMENT_HH
