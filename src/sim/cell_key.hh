/**
 * @file
 * Content-addressed identity of one sweep cell.
 *
 * A cell's Metrics are a pure function of the model and of (config,
 * workload, staging, seed): the exact SimConfig JSON round trip and
 * the golden/replay harness prove it bit for bit.  This module turns
 * that purity into a SHA-256 key over a text preimage of these lines:
 *
 *  - `model:` the build's model fingerprint, derived by the build from
 *    every file under src/ (cmake/model_fingerprint.cmake), so any
 *    library edit, comments included, moves every key;
 *  - `config:` the config (seed included) in canonical form
 *    (configTree: sorted keys, compact);
 *  - `workload:` a content identity, not a spelling: kernels as
 *    `kernel/<name>` (their generators are model sources), `trace:`
 *    members by the kernel name and CRC-32 stored in the `.lttr` file
 *    (a renamed or copied trace keys identically, a re-recorded one
 *    does not), `smt:` tuples decomposed per member;
 *  - `staging:` the run lengths, and `sampling:` the plan when one is
 *    enabled, so a sampled run never aliases the full-detail one.
 *
 * cellKeyPreimage() returns that text (for debugging and tests);
 * cellKeyFor() hashes it.
 */

#ifndef LTP_SIM_CELL_KEY_HH
#define LTP_SIM_CELL_KEY_HH

#include <string>

#include "sample/sample_plan.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

namespace ltp {

/** The build's model fingerprint: 64 hex chars of SHA-256 over every
 *  file under src/, path and content. */
const std::string &modelFingerprint();

/** Stable identity of one (config, workload, staging, seed) cell. */
struct CellKey
{
    std::string hex;      ///< 64-char SHA-256 digest — the cache address
    std::string workload; ///< content identity (debugging / `cache ls`)

    bool empty() const { return hex.empty(); }
};

/**
 * Content identity of a workload name: "kernel/<name>" for DSL
 * kernels, "trace/<kernel>@crc32:<hex>" for `trace:<path>` replays
 * (reads the file via the process-wide trace cache), and
 * "smt[<a>+<b>]" over member identities for `smt:` tuples.
 * @throws std::runtime_error on unreadable or malformed trace files.
 */
std::string workloadIdentity(const std::string &name);

/**
 * The key preimage of a cell whose workload has content identity
 * @p identity (workloadIdentity()).  @p cfg.seed rides in the config
 * line; @p sampling adds a `sampling:` line only when non-null and
 * enabled.
 */
std::string cellKeyPreimage(const SimConfig &cfg, const std::string &identity,
                            const RunLengths &lengths,
                            const SamplePlan *sampling = nullptr);

/** Derive the cell key: the SHA-256 of cellKeyPreimage(). */
CellKey cellKeyFor(const SimConfig &cfg, const std::string &workload,
                   const RunLengths &lengths,
                   const SamplePlan *sampling = nullptr);

} // namespace ltp

#endif // LTP_SIM_CELL_KEY_HH
