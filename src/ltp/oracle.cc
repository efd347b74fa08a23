#include "ltp/oracle.hh"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "isa/reg.hh"

namespace ltp {

OracleClassification
oracleClassify(Workload &workload, std::uint64_t seed, std::uint64_t n,
               const MemConfig &mem_cfg, const OracleParams &params)
{
    if (n == 0)
        return OracleClassification();
    std::vector<std::uint8_t> flags(n, 0);

    // ---- Pass 1 (forward): functional cache simulation marks the
    // long-latency seeds, and per-register "non-ready horizons"
    // propagate descendant status.
    auto mem = std::make_unique<MemSystem>(mem_cfg);
    workload.reset(seed);
    // Pass 2 needs only each op's register operands: keep those, not
    // the whole micro-op.
    struct Operands
    {
        RegId dst;
        RegId srcs[kMaxSrcs];
    };
    std::vector<Operands> trace(n);

    // nr_until[reg]: consumers of this register are Non-Ready while
    // their seq is below this horizon.
    std::vector<SeqNum> nr_until(kTotalArchRegs, 0);

    for (SeqNum s = 0; s < n; ++s) {
        MicroOp op = workload.next();
        trace[s].dst = op.dst;
        std::copy(std::begin(op.srcs), std::end(op.srcs), trace[s].srcs);

        bool long_lat = false;
        if (op.isMem()) {
            HitLevel level =
                mem->warmAccess(op.pc, op.effAddr, op.isStore(),
                                /*now=*/s * 2);
            long_lat = op.isLoad() && level == HitLevel::Dram;
        }
        if (isFixedLongLat(op.opc))
            long_lat = true;
        if (long_lat)
            flags[s] |= OracleClassification::kLongLat;

        // Non-Ready: reads a register whose value is still in flight.
        SeqNum horizon = 0;
        for (const auto &src : op.srcs)
            if (src.valid())
                horizon = std::max(horizon, nr_until[src.flat()]);
        if (horizon > s)
            flags[s] |= OracleClassification::kNonReady;

        if (op.hasDst()) {
            SeqNum h = horizon > s ? horizon : 0;
            if (long_lat)
                h = std::max(h, s + params.readinessWindow);
            nr_until[op.dst.flat()] = h;
        }
    }

    // ---- Pass 2 (backward): urgency closure.  need_at[reg] is the seq
    // of the nearest (oldest seen so far, walking backward) urgent
    // consumer of the register; a write kills the demand.
    std::vector<SeqNum> need_at(kTotalArchRegs, kSeqNone);

    for (SeqNum s = n; s-- > 0;) {
        const Operands &op = trace[s];
        bool urgent = (flags[s] & OracleClassification::kLongLat) != 0;

        if (op.dst.valid()) {
            SeqNum consumer = need_at[op.dst.flat()];
            if (consumer != kSeqNone &&
                consumer - s <= static_cast<SeqNum>(params.urgencyWindow))
                urgent = true;
            // This write kills older values of the register.
            need_at[op.dst.flat()] = kSeqNone;
        }

        if (urgent) {
            flags[s] |= OracleClassification::kUrgent;
            for (const auto &src : op.srcs)
                if (src.valid())
                    need_at[src.flat()] = s;
        }
    }

    return OracleClassification(
        std::make_shared<const std::vector<std::uint8_t>>(
            std::move(flags)));
}

} // namespace ltp
