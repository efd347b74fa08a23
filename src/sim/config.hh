/**
 * @file
 * Whole-simulation configuration: core + memory + trace staging, with
 * the named presets every bench builds from.
 *
 *  - baseline():    Table 1 — IQ 64, RF 128+128, LQ 64, SQ 32, ROB 256,
 *                   3-level caches, stride prefetcher, LTP off.
 *  - ltpProposal(): the paper's proposal — IQ 32, RF 96+96, plus a
 *                   128-entry 4-port queue-based Non-Urgent LTP with
 *                   learned classification (UIT 256) and the DRAM-timer
 *                   monitor.
 *  - limitStudy():  Section 4 — every resource effectively unlimited
 *                   except the ones a bench sweeps, infinite LTP with
 *                   oracle classification, LQ/SQ late allocation.
 */

#ifndef LTP_SIM_CONFIG_HH
#define LTP_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "cpu/core.hh"
#include "mem/mem_system.hh"

namespace ltp {

/** Complete configuration of one simulation run. */
struct SimConfig
{
    std::string name = "baseline";
    CoreConfig core;
    MemConfig mem;
    std::uint64_t seed = 1;

    /// @name Presets
    /// @{
    static SimConfig baseline();
    static SimConfig ltpProposal(LtpMode mode = LtpMode::NU);
    static SimConfig limitStudy(LtpMode mode);
    /// @}

    /// @name Fluent mutators (return *this for chaining)
    /// @{
    SimConfig &withName(const std::string &n);
    SimConfig &withIq(int entries);
    SimConfig &withRegs(int per_class);
    SimConfig &withLq(int entries);
    SimConfig &withSq(int entries);
    SimConfig &withRob(int entries);
    SimConfig &withLtp(LtpMode mode, int entries, int ports);
    SimConfig &withLtpOff();
    SimConfig &withOracle();
    SimConfig &withLearned();
    SimConfig &withUit(int entries);
    SimConfig &withTickets(int n);
    SimConfig &withMonitor(bool on);
    SimConfig &withPrefetcher(bool on);
    SimConfig &withSeed(std::uint64_t s);
    /// @}
};

/// @name Serialization
///
/// Every core, memory, and LTP field of a SimConfig is reachable by a
/// dotted path ("core.iq", "core.ltp.mode", "mem.l1d.sizeKB", ...).
/// One field registry drives JSON emission, JSON application, and the
/// command-line override setter, so the three can never disagree.
/// @{

/**
 * @p cfg as a value tree, every registered field nested by its path.
 * writeJsonCompact of it is the canonical config text: what the cell
 * key hashes and the `config` object of a serve `run` frame.
 */
JsonValue configTree(const SimConfig &cfg);

/** writeJson of configTree(@p cfg) (round-trip exact, sorted keys):
 *  the human-facing form `ltp print-config` prints. */
std::string configToJson(const SimConfig &cfg, int indent = 0);

/**
 * Every registered field's raw bytes (strings length-prefixed), in
 * registry order: two configs have equal identities exactly when every
 * field is equal.  An in-process equality key, cheaper than rendering
 * JSON; not stable across builds, so never hash it into a cell key.
 */
std::string configIdentity(const SimConfig &cfg);

/**
 * Just the `mem` section, compact with sorted keys, built from the
 * registry's `mem.*` fields alone: the identity of a memory hierarchy
 * (oracle memo and warming-chain keys), covering every registered
 * field.
 */
std::string memConfigJson(const MemConfig &mem);

/**
 * Build a SimConfig from a parsed JSON object: defaults, then every
 * present key applied (text callers parse it first).  Partial objects
 * are fine; unknown keys or wrong value types throw
 * std::runtime_error naming the offending path.
 */
SimConfig configFromJson(const JsonValue &v);

/**
 * Apply a parsed (possibly partial) JSON object onto @p cfg.
 * @param where  path prefix named in errors (e.g. "configs[2].set").
 */
void applyConfigJson(SimConfig &cfg, const JsonValue &v,
                     const std::string &where = "");

/**
 * Set one field by dotted path from its string spelling, e.g.
 * applyOverride(cfg, "core.iq", "32").  Sizes accept "inf"; enums
 * accept their printed names (case-insensitive).
 * @throws std::runtime_error naming the path on unknown paths or
 *         unparseable values.
 */
void applyOverride(SimConfig &cfg, const std::string &path,
                   const std::string &value);

/** Every dotted path applyOverride accepts, in declaration order. */
std::vector<std::string> configPaths();

/**
 * Parse an LtpMode name ("off" | "NU" | "NR" | "NR+NU",
 * case-insensitive).  @throws std::runtime_error naming @p where.
 */
LtpMode parseLtpMode(const std::string &s, const std::string &where);

/// @}

} // namespace ltp

#endif // LTP_SIM_CONFIG_HH
