/**
 * @file
 * Result reporting for sweeps: the per-view tables `ltp sweep` prints,
 * JSON and CSV emission so CI can persist a SweepResult (the
 * BENCH_*.json perf trajectory), plus a Metrics JSON round-trip used
 * when re-reading archived results.
 *
 * Every JSON document here is a value tree rendered by writeJson
 * (common/json.hh), so objects list their keys in sorted order.  The
 * Metrics object is small — numbers and strings, plus nested blocks
 * for energy, SMT threads and sampling.
 */

#ifndef LTP_SIM_REPORT_HH
#define LTP_SIM_REPORT_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"

namespace ltp {

/**
 * One Metrics as a value tree (round-trip exact through
 * metricsFromJson): what metricsToJson renders and the serve wire
 * carries.
 */
JsonValue metricsTree(const Metrics &m);

/** writeJson of metricsTree(@p m), nested from column @p indent. */
std::string metricsToJson(const Metrics &m, int indent = 0);

/**
 * Read a parsed metricsToJson object (text callers parse it first).
 * @throws std::runtime_error on a non-object or a newer schemaVersion.
 */
Metrics metricsFromJson(const JsonValue &root);

/**
 * Serialize a whole sweep: name, shard/thread counts, wall-clock, and
 * every (row, series) cell's Metrics.
 */
std::string reportToJson(const SweepResult &result);

/** Flat CSV: row, series, then one column per Metrics field. */
std::string reportToCsv(const SweepResult &result);

/**
 * Is @p view renderable by renderViews: a top-level numeric key of the
 * Metrics report (ipc, cpi, avgOutstanding, ltpOcc, forcedUnparks, ...)
 * or `perf` / `ed2p`, the %-deltas against the row's reference cell.
 */
bool isViewName(const std::string &view);

/**
 * Render one titled table per view, rows and series in declared order
 * (ResultGrid::order); absent cells read "-".  A row's reference cell
 * is the first series of its workload's "<workload>|base" row when the
 * grid has one, else the row's own first series.
 */
std::string renderViews(const SweepResult &result,
                        const std::vector<std::string> &views);

/** Write @p text to @p path; fatal() if the file cannot be opened. */
void writeFile(const std::string &path, const std::string &text);

/**
 * Archive the JSON report at @p path ("1" selects the conventional
 * BENCH_<sweep name>.json) and print the summary line.
 * @return the path written.
 */
std::string writeJsonReport(const SweepResult &result,
                            const std::string &path);

/** CSV sibling of writeJsonReport ("1" → BENCH_<sweep name>.csv). */
std::string writeCsvReport(const SweepResult &result,
                           const std::string &path);

} // namespace ltp

#endif // LTP_SIM_REPORT_HH
