/**
 * @file
 * The benchmark's workloads and the closed loop they share.
 *
 * Every workload is a fixed sweep grid generated from --seed and run
 * as whole passes through ltp::Runner (a closed loop: each of the
 * Runner's threads waits for its cell before taking the next).  Set-up
 * is timed in bursts spread over the run and reports its median; one
 * untimed pass warms the process; then passes repeat until --seconds
 * have elapsed.  Every pass is checked against an untimed serial
 * reference computed by the library's own Simulator::runOnce /
 * Sampler::runOnce.
 */

#ifndef LTP_PERFBENCH_WORKLOADS_HH
#define LTP_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Perturb the n-th cell result, counting from the warm-up pass
     *  (0 = no). */
    std::uint64_t injectAt = 0;
    std::string workDir;   ///< working space (caches), emptied first
    std::string spansPath; ///< traced runs write their spans here
    int threads = 4;       ///< Runner threads: min(4, nproc)
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

struct Report
{
    std::map<std::string, Metric> metrics;
    Tally tally;
    std::vector<std::string> notes; ///< printed beside the metrics
};

/** Run one workload.  @throws std::runtime_error on set-up failure. */
Report runWorkload(const Options &opt);

} // namespace perfbench

#endif // LTP_PERFBENCH_WORKLOADS_HH
