#include "sim/cell_key.hh"

#include "common/binio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/sha256.hh"
#include "model_fingerprint.hh"
#include "trace/trace_workload.hh"

namespace ltp {

const std::string &
modelFingerprint()
{
    static const std::string fingerprint = LTP_MODEL_FINGERPRINT;
    return fingerprint;
}

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

std::string
cellKeyPreimage(const SimConfig &cfg, const std::string &identity,
                const RunLengths &lengths, const SamplePlan *sampling)
{
    std::string out = "model: " + modelFingerprint() + "\n";
    out += "config: " + writeJsonCompact(configTree(cfg)) + "\n";
    out += "workload: " + identity + "\n";
    out += strprintf("staging: %llu/%llu/%llu\n",
                     static_cast<unsigned long long>(lengths.funcWarm),
                     static_cast<unsigned long long>(lengths.pipeWarm),
                     static_cast<unsigned long long>(lengths.detail));
    if (sampling && sampling->enabled())
        out += "sampling: " + sampling->toString() + "\n";
    return out;
}

CellKey
cellKeyFor(const SimConfig &cfg, const std::string &workload,
           const RunLengths &lengths, const SamplePlan *sampling)
{
    CellKey key;
    key.workload = workloadIdentity(workload);
    key.hex =
        sha256Hex(cellKeyPreimage(cfg, key.workload, lengths, sampling));
    return key;
}

} // namespace ltp
