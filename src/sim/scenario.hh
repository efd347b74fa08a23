/**
 * @file
 * Declarative experiment scenarios: a JSON schema describing presets +
 * overrides, kernel lists / panel groups, run lengths, seeds, the
 * row×series sweep shape and the tables to print, compiled into the
 * Runner's SweepSpec.  Every figure of the paper ships as a file under
 * scenarios/, run by `ltp sweep`.
 *
 * Two forms:
 *
 *  - **Declarative** — `workloads` (kernels | panels | groups | traces
 *    | pairs) crossed with `configs` (preset + mode + dotted `set`
 *    overrides), optionally swept along one or more config paths per
 *    row (`sweep`).  Configs marked `base` run once per workload,
 *    unswept, in the `<workload>|base` reference row.  `traces` rows
 *    replay recorded `.lttr` files (paths relative to the scenario
 *    file); `trace:<path>` names are also accepted anywhere a kernel
 *    name is.
 *  - **Explicit** — a `jobs` array of (row, series, kernels, full
 *    config); what `sweepSpecToJson` exports, so any in-C++ SweepSpec
 *    round-trips through a file.
 *
 * Both forms take `views`: the Metrics keys `ltp sweep` prints, one
 * table each (see renderViews in sim/report.hh).
 *
 * Malformed scenarios throw std::runtime_error naming the offending
 * JSON path ("configs[2].set.core.iqq", ...).  README.md documents the
 * full schema.
 */

#ifndef LTP_SIM_SCENARIO_HH
#define LTP_SIM_SCENARIO_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "sim/config.hh"
#include "sim/mlp_class.hh"
#include "sim/runner.hh"

namespace ltp {

// ---------------------------------------------------------------------------
// Panels: the paper's four reporting units (two marquee kernels + the
// two runtime-classified groups).
// ---------------------------------------------------------------------------

/** The four panels of Figure 6/7: two marquee kernels + two groups. */
struct Panels
{
    std::string astarLike = "graph_walk";
    std::string milcLike = "indirect_stream_fp";
    SuiteGroups groups;
};

/**
 * Classify the registered suite with the Section 4.1 runtime criteria
 * (detail capped at 20k instructions, as all panel consumers do).
 * @p backend routes the classification cells (null = in-process).
 */
Panels classifyPanels(const RunLengths &lengths, std::uint64_t seed,
                      int threads = 0, ExecBackendPtr backend = nullptr);

/** The kernels behind a panel name (single kernel or a whole group). */
std::vector<std::string> panelKernels(const Panels &panels,
                                      const std::string &panel);

/** The four standard panel identifiers, in paper order. */
std::vector<std::string> panelNames(const Panels &p);

/** Grid key for a (panel, axis point) cell: "<panel>|<point>". */
std::string panelRow(const std::string &panel, const std::string &point);

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/** One series of a declarative scenario: a config template. */
struct ScenarioConfig
{
    std::string series;            ///< grid series key
    std::string preset = "baseline"; ///< baseline | ltpProposal | limitStudy
    bool hasMode = false;
    LtpMode mode = LtpMode::NU;    ///< preset factory argument
    std::string nameOverride;      ///< optional SimConfig::name override
    JsonValue set;                 ///< partial config JSON (dotted or nested)
    std::string where;             ///< error-path prefix ("configs[2]")
    /** Runs once per workload, unswept, in the "<workload>|base" row. */
    bool base = false;
    /** Sweep value a base config pins on every sweep path ("" = none);
     *  how `sweep.baseline {series, value}` desugars. */
    std::string baseValue;
};

/** Optional row axis: config paths swept together over values. */
struct ScenarioSweep
{
    std::vector<std::string> paths; ///< e.g. {"core.iq"}; all take each value
    std::vector<std::string> values; ///< "inf" or number lexemes, in order
};

/** A parsed, validated scenario file. */
struct Scenario
{
    std::string name = "scenario";
    RunLengths lengths;
    /** Optional `sampling` block: interval sampling for every cell
     *  (disabled by default = full detail). */
    SamplePlan sampling;
    std::uint64_t seed = 1;
    /** True when the file (or a driver flag) set the seed explicitly —
     *  only then does it override the per-job seeds of an
     *  explicit-jobs scenario. */
    bool hasSeed = false;

    enum class WorkloadKind { None, Kernels, Panels, Groups, Traces,
                              Pairs };
    WorkloadKind workloadKind = WorkloadKind::None;
    std::vector<std::string> kernels;  ///< WorkloadKind::Kernels
    std::vector<std::string> panels;   ///< Panels; empty = all four
    std::vector<std::pair<std::string, std::vector<std::string>>> groups;
    std::vector<std::string> traces;   ///< Traces: resolved .lttr paths
    /** Pairs: multiprogrammed SMT tuples — one kernel (or trace) per
     *  hardware thread; each tuple compiles to an `smt:<a>+<b>`
     *  workload with core.numThreads forced to the tuple size. */
    std::vector<std::vector<std::string>> pairs;

    /** Series templates; base configs (desugared `sweep.baseline`
     *  first) and swept ones, in declared order. */
    std::vector<ScenarioConfig> configs;
    bool hasSweep = false;
    ScenarioSweep sweep;

    /** Tables `ltp sweep` prints: Metrics report keys, or perf/ed2p
     *  deltas against each row's reference cell. */
    std::vector<std::string> views = {"ipc"};

    bool explicitJobs = false;
    std::vector<SweepJob> jobs;

    /**
     * Compile to a runnable SweepSpec.  Panels scenarios classify the
     * suite first, sharded over @p threads workers (grouping is
     * thread-count independent) and routed through @p backend (null =
     * in-process), so a cached/served sweep also answers its
     * classification matrix from the cache.
     */
    SweepSpec compile(int threads = 1,
                      ExecBackendPtr backend = nullptr) const;

    /** Materialize one series config: preset(mode) + seed + overrides,
     *  then @p value on every sweep path ("" = unswept). */
    SimConfig buildConfig(const ScenarioConfig &sc,
                          const std::string &value = "") const;
};

/**
 * Parse and validate scenario JSON.  Relative `.lttr` trace paths are
 * resolved against @p baseDir (empty = the working directory) and the
 * files validated (header/CRC) eagerly.
 * @throws std::runtime_error naming the offending path on unknown
 *         keys, bad types, unknown kernels/presets/config paths, and
 *         missing or corrupt trace files.
 */
Scenario scenarioFromJson(const std::string &text,
                          const std::string &baseDir = "");

/**
 * The `lengths` block at @p where: a preset name (default|quick|bench)
 * or an object whose absent fields keep the defaults.  Shared with
 * `ltp sweep --submit`, which layers staging flags onto it.
 * @throws std::runtime_error naming @p where on bad keys or values.
 */
RunLengths parseLengths(const JsonValue &v, const std::string &where);

/** @p l as the object parseLengths reads back (every field). */
JsonValue lengthsTree(const RunLengths &l);

/**
 * The `sampling` block at @p where: "default" or an object whose absent
 * fields keep SamplePlan::defaults().  Shared with `ltp sweep --submit`.
 * @throws std::runtime_error naming @p where on bad keys or values.
 */
SamplePlan parseSampling(const JsonValue &v, const std::string &where);

/** @p plan as the object parseSampling reads back (every field). */
JsonValue samplingTree(const SamplePlan &plan);

/**
 * The `views` list of scenario JSON @p root (default {"ipc"}), checked
 * against the Metrics report keys.  Shared with `ltp sweep --submit`,
 * which renders a daemon-compiled scenario.
 * @throws std::runtime_error naming "views[i]" on an unknown view.
 */
std::vector<std::string> scenarioViews(const JsonValue &root);

/** Read and parse @p path; errors are prefixed with the file name. */
Scenario loadScenarioFile(const std::string &path);

/** Export a SweepSpec as an explicit-jobs scenario file (round-trips
 *  through scenarioFromJson + compile). */
std::string sweepSpecToJson(const SweepSpec &spec);

} // namespace ltp

#endif // LTP_SIM_SCENARIO_HH
