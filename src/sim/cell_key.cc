#include "sim/cell_key.hh"

#include "common/binio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/sha256.hh"
#include "sim/metrics.hh"
#include "trace/trace_workload.hh"

namespace ltp {

std::string
workloadIdentity(const std::string &name)
{
    if (isSmtName(name)) {
        // Per-thread decomposition: each member contributes its own
        // content identity, order preserved (tid assignment matters).
        std::string out = "smt[";
        bool first = true;
        for (const std::string &member : smtMembers(name)) {
            if (!first)
                out += "+";
            first = false;
            out += workloadIdentity(member);
        }
        return out + "]";
    }
    if (isTraceName(name)) {
        // Identity by content, not by path: the CRC-32 stored in the
        // `.lttr` footer covers header + records, so two files with
        // the same recording key identically wherever they live.
        // (The footer itself must be excluded from any whole-file
        // checksum: crc(data || crc(data)) is the same residue
        // constant for EVERY valid file, which would alias all
        // traces.)  TraceReader already verified footer == content
        // CRC, so reading it back is both exact and free.
        std::string path = tracePath(name);
        std::shared_ptr<const TraceReader> trace = loadTraceCached(path);
        const std::string &bytes = trace->bytes();
        std::uint32_t content_crc =
            ByteReader(bytes, bytes.size() - 4).u32();
        return strprintf("trace/%s@crc32:%08x",
                         trace->info().kernel.c_str(), content_crc);
    }
    return "kernel/" + name;
}

CellKey
cellKeyFor(const SimConfig &cfg, const std::string &workload,
           const RunLengths &lengths, const SamplePlan *sampling)
{
    CellKey key;
    key.workload = workloadIdentity(workload);

    Sha256 h;
    h.update(strprintf("ltp-cell-v%d\n", kCellKeyVersion));
    h.update(strprintf("model: %d\n", kModelVersion));
    h.update("config: " + writeJsonCompact(configTree(cfg)) + "\n");
    h.update("workload: " + key.workload + "\n");
    h.update(strprintf("staging: %llu/%llu/%llu\n",
                       static_cast<unsigned long long>(lengths.funcWarm),
                       static_cast<unsigned long long>(lengths.pipeWarm),
                       static_cast<unsigned long long>(lengths.detail)));
    h.update(strprintf("metricsSchema: %d\n", kMetricsSchemaVersion));
    // Appended only when enabled: full-detail keys are byte-identical
    // to the pre-sampling derivation, so existing caches stay valid.
    if (sampling && sampling->enabled())
        h.update("sampling: " + sampling->toString() + "\n");
    key.hex = h.hex();
    return key;
}

} // namespace ltp
