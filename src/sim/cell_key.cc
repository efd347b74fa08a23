#include "sim/cell_key.hh"

#include "common/file_io.hh"
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
        // Identity by content, not by path: the container's content
        // CRC covers header + records, so two files with the same
        // recording key identically wherever they live.
        std::shared_ptr<const TraceReader> trace =
            loadTraceCached(tracePath(name));
        return strprintf("trace/%s@crc32:%08x",
                         trace->info().kernel.c_str(),
                         sealedCrc(trace->bytes()));
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
