/**
 * @file
 * Content-addressed identity of one sweep cell.
 *
 * A cell's Metrics are a pure function of (config, workload, staging,
 * seed) — PR 2's exact SimConfig JSON round-trip and PR 3's
 * golden/replay harness prove it bit for bit.  This module turns that
 * purity into a stable SHA-256 key:
 *
 *  - the config (seed included) is rendered in canonical form
 *    (configTree: sorted keys, compact), so the key is independent of
 *    field order and formatting;
 *  - the workload contributes a content identity, not a spelling:
 *    kernels by name, `trace:<path>` members by the kernel name and
 *    CRC-32 stored in the `.lttr` file (so a renamed or copied trace
 *    file keys identically, and a re-recorded one does not), `smt:`
 *    tuples decomposed per member;
 *  - the staging plan, the Metrics schema version and the model
 *    version round out the preimage, so staging changes, format bumps
 *    and behaviour changes never alias.
 *
 * The preimage is kept alongside the hex digest for observability
 * (`ltp cache ls`, wire-protocol debugging).
 */

#ifndef LTP_SIM_CELL_KEY_HH
#define LTP_SIM_CELL_KEY_HH

#include <string>

#include "sample/sample_plan.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

namespace ltp {

/** Version salt of the key derivation itself: bump on any change to
 *  the preimage layout so old cache entries can never alias. */
inline constexpr int kCellKeyVersion = 2;

/**
 * Version of the simulated behaviour, part of every cell key.  Bump it
 * with any change that moves a simulated result, so no cache (local,
 * served or distributed) can return a number the current model would
 * not produce.  test_golden pins a digest of the golden snapshots per
 * model version: re-baselining the goldens without a bump fails it.
 */
inline constexpr int kModelVersion = 4;

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
 * Derive the cell key.  @p cfg.seed rides in the config JSON.
 *
 * @p sampling, when non-null and enabled, contributes a `sampling:`
 * line to the preimage so a sampled run's (approximate) Metrics can
 * never alias the full-detail run of the same cell; a null or
 * disabled plan contributes nothing, keeping every pre-sampling key
 * (and cache entry) byte-identical.
 */
CellKey cellKeyFor(const SimConfig &cfg, const std::string &workload,
                   const RunLengths &lengths,
                   const SamplePlan *sampling = nullptr);

} // namespace ltp

#endif // LTP_SIM_CELL_KEY_HH
