/**
 * @file
 * Host-side simulator-throughput benchmark (the perf trajectory).
 *
 * Measures simulated kilo-instructions per wall-clock second (kIPS)
 * over representative suite kernels and whole scenario sweeps, always
 * single-threaded so the number tracks per-core cycle-kernel speed,
 * not host parallelism.  Reached via `ltp bench`; results are archived
 * as BENCH_simspeed.json and gated in CI against
 * bench/simspeed_baseline.json (fail on >25% regression).
 *
 * "Simulated instructions" counts the detailed-model region only
 * (pipeline warm + measured detail); the functional cache warm runs
 * too — its cost is inside the wall time — but its instructions are
 * not credited, so kIPS is a conservative cycle-kernel throughput.
 */

#ifndef LTP_SIM_SIMSPEED_HH
#define LTP_SIM_SIMSPEED_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace ltp {

/** What to measure. */
struct SimSpeedOptions
{
    bool quick = false;      ///< fewer kernels, shorter staging
    /**
     * Attach a sampled per-stage tick profile to every kernel cell
     * (the `ltp bench --profile` mode): each cell's tick time is
     * attributed to pipeline stages (ticket events, wakeup, rename,
     * ...) so a throughput regression names its stage from the CI
     * artifact alone.  The profile times one executed tick in
     * TickProfile::kPeriod and the profiled core skips quiet cycles
     * like any other, so a profiled run simulates exactly what an
     * unprofiled one does, at about the same speed.
     */
    bool profile = false;
    /**
     * Best-of-N repetitions per cell: every cell is simulated @c reps
     * times and the fastest wall time is kept, with that rep's
     * profile.  kIPS measures the simulator, not the host scheduler,
     * and min-of-N is the standard way to strip scheduler/frequency
     * noise from ~25 ms cells (the committed BENCH_simspeed.json is
     * produced with --reps=3).
     */
    int reps = 1;
    std::uint64_t seed = 1;
    RunLengths lengths = RunLengths::bench(); ///< per-kernel cells
    /** Scenario files swept serially (their own staging plans). */
    std::vector<std::string> scenarios;
};

/** One measured cell: a (config, kernel) run or a whole scenario. */
struct SimSpeedCell
{
    std::string label;  ///< kernel name or scenario name
    std::string config; ///< config name, or "scenario"
    std::size_t simulations = 1; ///< cells simulated (a scenario's
                                 ///< computed cells, not its repeats)
    std::uint64_t detailedInsts = 0; ///< pipeWarm + detail, summed
    double wallMs = 0.0;
    double kips = 0.0; ///< detailedInsts / wall seconds / 1000
    /** Per-stage attribution of the fastest rep, filled by
     *  SimSpeedOptions::profile on kernel cells (scenario cells run
     *  through the Runner and are not instrumented). */
    TickProfile profile;

    bool profiled() const { return profile.ticks > 0; }
};

/** Full benchmark result. */
struct SimSpeedReport
{
    bool quick = false;
    std::uint64_t seed = 1;
    int reps = 1; ///< best-of-N wall times (SimSpeedOptions::reps)
    std::vector<SimSpeedCell> kernelCells;
    std::vector<SimSpeedCell> scenarioCells;
    std::uint64_t totalInsts = 0;
    double totalWallMs = 0.0;
    double totalKips = 0.0;

    /**
     * Reference kIPS by cell label (e.g. the pre-refactor number for
     * fig6_IQ), copied from the baseline file; emitted alongside the
     * measured value with the resulting speedup.
     */
    std::map<std::string, double> referenceKips;

    /** The BENCH_simspeed.json document. */
    std::string toJson() const;
};

/** Run the benchmark (always single-threaded simulations). */
SimSpeedReport runSimSpeedBench(const SimSpeedOptions &opts);

/**
 * Gate against a baseline file ({"total_kips": N, ...}).  Prints the
 * verdict; returns false when measured total kIPS falls below
 * @p failBelowFrac of the baseline (the CI perf-smoke failure).
 * A missing/invalid baseline file is a hard error (throws).
 */
bool checkSimSpeedBaseline(const SimSpeedReport &report,
                           const std::string &baselinePath,
                           double failBelowFrac = 0.75);

/** The baseline's reference_kips map (empty if absent). */
std::map<std::string, double>
loadReferenceKips(const std::string &baselinePath);

} // namespace ltp

#endif // LTP_SIM_SIMSPEED_HH
