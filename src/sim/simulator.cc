#include "sim/simulator.hh"

#include <stdexcept>

#include "ltp/oracle.hh"
#include "sim/oracle_memo.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"

namespace ltp {

// ---------------------------------------------------------------------------
// SMT workload-tuple names
// ---------------------------------------------------------------------------

bool
isSmtName(const std::string &name)
{
    return name.rfind(kSmtNamePrefix, 0) == 0;
}

std::vector<std::string>
smtMembers(const std::string &name)
{
    std::string body =
        isSmtName(name) ? name.substr(std::string(kSmtNamePrefix).size())
                        : name;
    std::vector<std::string> members;
    std::size_t pos = 0;
    while (pos <= body.size()) {
        std::size_t plus = body.find('+', pos);
        if (plus == std::string::npos)
            plus = body.size();
        // Reject empty members ("smt:", "smt:a+", "smt:a++b") rather
        // than silently running fewer contexts than were written.
        if (plus == pos)
            throw std::runtime_error(
                "empty member in smt: workload tuple '" + name + "'");
        members.push_back(body.substr(pos, plus - pos));
        pos = plus + 1;
    }
    if (members.empty())
        throw std::runtime_error("empty smt: workload tuple '" + name +
                                 "'");
    return members;
}

std::string
smtName(const std::vector<std::string> &members)
{
    std::string out = kSmtNamePrefix;
    for (std::size_t i = 0; i < members.size(); ++i) {
        // '+' is the tuple separator and cannot be escaped; a member
        // (e.g. a trace path under a directory with '+' in its name)
        // containing one would be split apart on the next parse.
        if (members[i].empty() ||
            members[i].find('+') != std::string::npos)
            throw std::runtime_error(
                "smt: tuple member '" + members[i] +
                "' is empty or contains '+' (unsupported in the "
                "smt:<a>+<b> syntax; rename the path)");
        if (i)
            out += '+';
        out += members[i];
    }
    return out;
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

std::vector<std::string>
resolveWorkloadMembers(SimConfig &cfg, const std::string &kernel)
{
    // Resolve the workload tuple: an smt:<a>+<b> name carries one
    // member per hardware thread; a plain name runs on every context
    // (homogeneous SMT) — which is just the kernel itself at N=1.
    std::vector<std::string> members =
        isSmtName(kernel) ? smtMembers(kernel)
                          : std::vector<std::string>{kernel};
    if (members.size() > 1) {
        if (cfg.core.numThreads <= 1)
            cfg.core.numThreads = static_cast<int>(members.size());
        else if (cfg.core.numThreads !=
                 static_cast<int>(members.size()))
            throw std::runtime_error(
                "workload '" + kernel + "' names " +
                std::to_string(members.size()) + " contexts but "
                "core.numThreads is " +
                std::to_string(cfg.core.numThreads));
    }
    int n = std::max(cfg.core.numThreads, 1);
    cfg.core.numThreads = n;
    while (static_cast<int>(members.size()) < n)
        members.push_back(members.front());
    return members;
}

Simulator::Simulator(const SimConfig &cfg, const std::string &kernel,
                     const RunLengths &lengths)
    : cfg_(cfg), lengths_(lengths)
{
    std::vector<std::string> members =
        resolveWorkloadMembers(cfg_, kernel);
    int n = cfg_.core.numThreads;

    for (const std::string &member : members)
        workloads_.push_back(makeKernel(member));

    // Oracle pre-pass (limit study): classify, per thread, the whole
    // region the detailed phase can reach, including fetch-ahead
    // slack.  Each thread's oracle replays that thread's own stream
    // (constant per-thread address offsets do not change a single
    // stream's cache behaviour, so the standalone pre-pass stays
    // valid).  Cells sharing a (member, seed, region, memory config)
    // share one classification through the process-wide memo.
    oracles_.resize(workloads_.size());
    if (cfg_.core.ltp.mode != LtpMode::Off &&
        cfg_.core.ltp.classifier == ClassifierKind::Oracle) {
        std::uint64_t region = lengths_.funcWarm + lengths_.pipeWarm +
                               lengths_.detail + kTraceFetchSlack;
        for (std::size_t tid = 0; tid < members.size(); ++tid) {
            oracles_[tid] = OracleMemo::global().classify(
                members[tid], cfg_.seed, region, cfg_.mem);
            oracles_[tid].setBase(lengths_.funcWarm);
        }
    }

    mem_ = std::make_unique<MemSystem>(cfg_.mem);

    // Phase 1: functional cache warm (Section 4.1's 250M equivalent),
    // round-robin interleaved across contexts so the shared hierarchy
    // warms under the same multiprogrammed mix it will serve.  The
    // hierarchy ends exactly as a sampling chain's FastForward leaves
    // it at the same position; the loop stays here because FastForward
    // also trains branch predictors, which a full run starts cold.
    for (auto &w : workloads_)
        w->reset(cfg_.seed);
    for (std::uint64_t i = 0; i < lengths_.funcWarm; ++i) {
        for (int tid = 0; tid < n; ++tid) {
            MicroOp op = workloads_[std::size_t(tid)]->next();
            if (op.isMem())
                mem_->warmAccess(op.pc + threadAddrBase(tid),
                                 op.effAddr + threadAddrBase(tid),
                                 op.isStore(), 0);
        }
    }

    // The trace windows continue from the warm position: core seq 0 is
    // trace position funcWarm (the oracles are offset to match).
    std::size_t max_window = traceWindowBound(cfg_.core);
    std::vector<InstSource *> sources;
    std::vector<const OracleClassification *> oracle_ptrs;
    for (std::size_t tid = 0; tid < workloads_.size(); ++tid) {
        sources_.push_back(std::make_unique<TraceWindow>(
            *workloads_[tid], max_window));
        sources.push_back(sources_.back().get());
        oracle_ptrs.push_back(oracles_[tid].valid() ? &oracles_[tid]
                                                    : nullptr);
    }
    core_ = std::make_unique<Core>(cfg_.core, *mem_, sources,
                                   oracle_ptrs);
}

Metrics
Simulator::run()
{
    std::vector<Workload *> workloads;
    for (const WorkloadPtr &w : workloads_)
        workloads.push_back(w.get());
    return runDetailPhases(cfg_, *core_, *mem_, workloads,
                           lengths_.pipeWarm, lengths_.detail);
}

Metrics
Simulator::runOnce(const SimConfig &cfg, const std::string &kernel,
                   const RunLengths &lengths)
{
    Simulator sim(cfg, kernel, lengths);
    return sim.run();
}

Metrics
extractMetrics(const SimConfig &cfg, Core &core, MemSystem &mem,
               const std::vector<Workload *> &workloads,
               const std::vector<Cycle> &cross_cycles,
               const std::vector<std::uint64_t> &cross_insts,
               Cycle detail_cycles)
{
    Metrics m;
    int n = core.numThreads();
    Cycle now = core.cycle();
    Cycle detail_start = now - detail_cycles;

    m.config = cfg.name;
    // The workload's own name, not the lookup key: a `trace:<path>`
    // replay reports the source kernel name embedded in the trace, so
    // its Metrics are bit-identical to the execute-mode run.  SMT runs
    // report the members joined in tid order ("a+b").
    m.workload = workloads[0]->name();
    for (int tid = 1; tid < n; ++tid)
        m.workload += "+" + workloads[std::size_t(tid)]->name();

    // Per-thread slices (fixed instruction samples).
    m.threads.resize(std::size_t(n));
    for (int tid = 0; tid < n; ++tid) {
        ThreadMetrics &tm = m.threads[std::size_t(tid)];
        tm.workload = workloads[std::size_t(tid)]->name();
        tm.insts = cross_insts[std::size_t(tid)];
        tm.cycles = cross_cycles[std::size_t(tid)] - detail_start;
        tm.ipc = safeDiv(double(tm.insts), double(tm.cycles));
    }

    // Aggregates credit exactly the per-thread samples over the whole
    // region (at N=1: the one thread's committed count over its own
    // region — the classic single-threaded numbers, bit for bit).
    m.insts = 0;
    for (const ThreadMetrics &tm : m.threads)
        m.insts += tm.insts;
    m.cycles = detail_cycles;
    m.ipc = safeDiv(double(m.insts), double(m.cycles));
    m.cpi = safeDiv(double(m.cycles), double(m.insts));

    m.avgOutstanding = mem.avgOutstanding(now);
    m.avgLoadLatency = mem.avgLoadLatency();
    m.dramReads = mem.dram().reads.value();

    // Shared structures report directly; thread-owned structures sum
    // across contexts (a per-context view lives in Metrics::threads).
    m.iqOcc = core.iq().occupancy.mean(now);
    m.rfOcc = core.regs(RegClass::Int).occupancy.mean(now) +
              core.regs(RegClass::Fp).occupancy.mean(now);
    std::uint64_t renamed = 0;
    for (int tid = 0; tid < n; ++tid) {
        CoreStats &cs = core.stats(tid);
        m.robOcc += core.rob(tid).occupancy.mean(now);
        m.lqOcc += core.lsq(tid).lqOccupancy.mean(now);
        m.sqOcc += core.lsq(tid).sqOccupancy.mean(now);
        m.ltpOcc += core.ltpQueue(tid).occupancy.mean(now);
        m.ltpRegsOcc += core.ltpQueue(tid).parkedWithDest.mean(now);
        m.ltpLoadsOcc += core.ltpQueue(tid).parkedLoads.mean(now);
        m.ltpStoresOcc += core.ltpQueue(tid).parkedStores.mean(now);
        m.parked += cs.parked.value();
        m.unparked += cs.unparked.value();
        m.forcedUnparks += cs.forcedUnparks.value();
        m.pressureUnparks += cs.pressureUnparks.value();
        renamed += cs.renamed.value();
        m.llpredAccuracy += core.llpred(tid).accuracy() / n;
        m.bpAccuracy += core.branchPred(tid).accuracy() / n;
        if (cfg.core.ltp.mode != LtpMode::Off)
            m.ltpEnabledFrac +=
                core.monitor(tid).enabledFraction(now) / n;
    }
    m.parkedFrac = safeDiv(double(m.parked), double(renamed));

    // ---- energy ----
    EnergyInputs ein;
    ein.cycles = m.cycles;
    // "Infinite" structures are modelled at a finite proxy size so the
    // limit-study points remain plottable (ratios are what matter).
    auto energySize = [](int entries, int cap) {
        return isInfinite(entries) ? cap : entries;
    };
    ein.iqEntries = energySize(cfg.core.iqSize, 1024);
    ein.issueWidth = cfg.core.issueWidth;
    ein.totalRegs = energySize(cfg.core.intRegs, 1024) +
                    energySize(cfg.core.fpRegs, 1024);
    if (cfg.core.ltp.mode != LtpMode::Off) {
        ein.ltpEntries = energySize(cfg.core.ltp.entries, 1024);
        ein.ltpPorts = cfg.core.ltp.insertPorts;
        ein.uitEntries = energySize(cfg.core.ltp.uitEntries, 4096);
        ein.ltpCam = cfg.core.ltp.mode != LtpMode::NU;
        ein.ltpEnabledFraction = m.ltpEnabledFrac;
    }
    ein.iqInserts = core.iq().inserts.value();
    for (int tid = 0; tid < n; ++tid) {
        CoreStats &cs = core.stats(tid);
        ein.iqIssues += cs.iqIssued.value();
        ein.wakeupBroadcasts += cs.wbWrites.value();
        ein.rfReads += cs.rfReads.value();
        ein.rfWrites += cs.rfWrites.value();
        ein.ltpPushes += core.ltpQueue(tid).pushes.value();
        ein.ltpPops += core.ltpQueue(tid).pops.value();
        ein.ticketBroadcasts += core.tickets(tid).broadcasts.value();
        ein.uitLookups += core.uit(tid).lookups.value();
        ein.uitInserts += core.uit(tid).inserts.value();
        ein.predLookups += core.llpred(tid).predictions.value();
    }
    m.energy = computeEnergy(ein);
    m.ed2p = m.energy.ed2p(m.cycles);
    m.edp = m.energy.edp(m.cycles);

    return m;
}

Metrics
runDetailPhases(const SimConfig &cfg, Core &core, MemSystem &mem,
                const std::vector<Workload *> &workloads,
                std::uint64_t pipe_warm, std::uint64_t detail,
                const std::function<void(const char *)> &phase)
{
    int n = core.numThreads();
    if (phase)
        phase("warmup");

    // A context that has committed its quota for the current phase
    // stops fetching and drains: co-runners keep contending until
    // their own quotas close, but a finished thread never runs
    // arbitrarily far ahead — which keeps bounded `trace:` members
    // inside their recorded fetch-ahead slack.
    std::vector<bool> done(std::size_t(n), false);
    auto gateOnQuota = [&](std::uint64_t quota) {
        for (int tid = 0; tid < n; ++tid) {
            if (!done[std::size_t(tid)] &&
                core.committedInsts(tid) >= quota) {
                done[std::size_t(tid)] = true;
                core.setFetchEnabled(tid, false);
            }
        }
    };
    auto reopenFetch = [&] {
        done.assign(std::size_t(n), false);
        for (int tid = 0; tid < n; ++tid)
            core.setFetchEnabled(tid, true);
    };

    // Phase 2: detailed pipeline warm — until every context has
    // committed its warm quota (stats discarded).
    if (n == 1) {
        core.runUntilCommitted(pipe_warm);
    } else {
        core.runUntilCommitted(pipe_warm, kCycleNever,
                               [&] { gateOnQuota(pipe_warm); });
        reopenFetch();
    }
    core.resetStats();
    mem.resetStats(core.cycle());
    Cycle detail_start = core.cycle();
    if (phase)
        phase("detail");

    // Phase 3: measured detail region, fixed instruction samples.
    // Each thread's slice closes the cycle it commits its quota; the
    // region runs until the last thread closes.  At N=1 this is
    // exactly the classic "run until n committed".
    std::vector<Cycle> cross_cycles(std::size_t(n), 0);
    std::vector<std::uint64_t> cross_insts(std::size_t(n), 0);
    std::vector<bool> crossed(std::size_t(n), false);
    auto noteCrossings = [&] {
        for (int tid = 0; tid < n; ++tid) {
            if (crossed[std::size_t(tid)])
                continue;
            if (core.committedInsts(tid) >= detail) {
                crossed[std::size_t(tid)] = true;
                cross_cycles[std::size_t(tid)] = core.cycle();
                cross_insts[std::size_t(tid)] =
                    core.committedInsts(tid);
            }
        }
    };

    if (n == 1) {
        // Single-threaded: the quota check is the run loop's own stop
        // condition — no per-tick crossing scan (or fetch gating) on
        // the hot path.
        core.runUntilCommitted(detail);
        noteCrossings();
    } else {
        auto onTick = [&] {
            noteCrossings();
            gateOnQuota(detail);
        };
        onTick();
        core.runUntilCommitted(detail, kCycleNever, onTick);
        reopenFetch();
    }
    return extractMetrics(cfg, core, mem, workloads, cross_cycles,
                          cross_insts, core.cycle() - detail_start);
}

} // namespace ltp
