#include "sample/fast_forward.hh"

#include <chrono>

#include "cpu/core.hh"
#include "trace/suite.hh"

namespace ltp {

FastForward::FastForward(const SimConfig &cfg,
                         const std::vector<std::string> &members,
                         MemSystem &mem)
    : mem_(mem)
{
    threads_.reserve(members.size());
    for (const std::string &member : members) {
        threads_.emplace_back(makeKernel(member), cfg.core);
        threads_.back().stream->reset(cfg.seed);
    }
}

void
FastForward::retireOne(int tid)
{
    ThreadState &t = threads_[std::size_t(tid)];
    t.consumed += 1;
    MicroOp op = t.stream->next();
    if (op.isBranch())
        t.bpred.predict(op.pc, op.taken, op.target);
    if (op.isMem())
        mem_.warmAccess(op.pc + threadAddrBase(tid),
                        op.effAddr + threadAddrBase(tid), op.isStore(), 0);
    retired_ += 1;
}

void
FastForward::skip(int tid, std::uint64_t n)
{
    ThreadState &t = threads_[std::size_t(tid)];
    t.stream->skip(n);
    t.consumed += n;
}

void
FastForward::advanceTo(std::uint64_t target)
{
    auto start = std::chrono::steady_clock::now();
    // Round-robin rounds: one op per lagging thread per round, so the
    // shared hierarchy interleaves the same way the warm phase of a
    // full run does.  Only a checkpoint with unequal per-thread
    // positions leaves a thread to finish alone.
    for (int tid = 0; tid < numThreads(); ++tid)
        sim_assert(consumed(tid) <= target);
    bool any = true;
    while (any) {
        any = false;
        for (int tid = 0; tid < numThreads(); ++tid) {
            if (consumed(tid) < target) {
                retireOne(tid);
                any = true;
            }
        }
    }
    elapsed_sec_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
}

double
FastForward::kips() const
{
    if (elapsed_sec_ <= 0.0)
        return 0.0;
    return double(retired_) / elapsed_sec_ / 1000.0;
}

} // namespace ltp
