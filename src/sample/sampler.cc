#include "sample/sampler.hh"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/binio.hh"
#include "common/logging.hh"
#include "cpu/core.hh"
#include "sim/oracle_memo.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"

namespace ltp {

std::string
SamplePlan::toString() const
{
    return strprintf("%llu/%llu/%llu x%d",
                     (unsigned long long)fastForward,
                     (unsigned long long)warmup,
                     (unsigned long long)detail, samples);
}

Sampler::Sampler(const SimConfig &cfg, const std::string &kernel,
                 const SamplePlan &plan)
    : cfg_(cfg), plan_(plan), kernel_(kernel)
{
    if (!plan_.enabled() || plan_.detail == 0)
        throw std::runtime_error(
            "sampling plan needs samples > 0 and a nonzero detail "
            "length (got " + plan_.toString() + ")");

    members_ = resolveWorkloadMembers(cfg_, kernel_);
    for (const std::string &member : members_)
        workload_name_ += (workload_name_.empty() ? "" : "+") +
                          makeKernel(member)->name();
}

void
Sampler::restoreFrom(const Checkpoint &ckpt)
{
    sim_assert(!ran_);
    from_ = std::make_shared<const Checkpoint>(ckpt);
    from_crc_ = crc32(checkpointToBytes(ckpt));
}

ChainSpec
Sampler::chainSpec() const
{
    return ChainSpec{cfg_, members_, workload_name_, plan_, from_,
                     from_crc_};
}

Metrics
Sampler::runSample(int i, WarmPoint &point,
                   const std::function<void(const char *)> &phase)
{
    std::size_t max_window = traceWindowBound(cfg_.core);
    int n = cfg_.core.numThreads;
    std::vector<std::unique_ptr<TraceWindow>> windows;
    std::vector<InstSource *> sources;
    std::vector<OracleClassification> oracles = oracles_;
    std::vector<const OracleClassification *> oracle_ptrs;
    std::vector<Workload *> wl_ptrs;
    for (int tid = 0; tid < n; ++tid) {
        std::size_t t = std::size_t(tid);
        windows.push_back(
            std::make_unique<TraceWindow>(*point.streams[t], max_window));
        sources.push_back(windows.back().get());
        wl_ptrs.push_back(point.streams[t].get());
        if (oracles[t].valid())
            oracles[t].setBase(point.threads[t].position);
        oracle_ptrs.push_back(oracles[t].valid() ? &oracles[t] : nullptr);
    }

    Core core(cfg_.core, point.mem, sources, oracle_ptrs);
    for (int tid = 0; tid < n; ++tid)
        core.branchPred(tid).restore(point.threads[std::size_t(tid)].bpred);
    starts_[std::size_t(i)] = point.threads[0].position;
    return runDetailPhases(cfg_, core, point.mem, wl_ptrs, plan_.warmup,
                           plan_.detail, phase);
}

Metrics
Sampler::run(const PhaseFn &phase)
{
    sim_assert(!ran_);
    ran_ = true;

    ChainSpec spec = chainSpec();

    // Oracle pre-pass (limit study): one classification per thread
    // covering every position any sample can reach, up to the last
    // sample's end plus the fetch-ahead slack; each sample rebases
    // lookups to its own start.  Out-of-range lookups fail safe
    // (classified as none).
    oracles_.resize(members_.size());
    if (cfg_.core.ltp.mode != LtpMode::Off &&
        cfg_.core.ltp.classifier == ClassifierKind::Oracle) {
        std::uint64_t span = spec.sampleStart(plan_.samples - 1) +
                             plan_.warmup + plan_.detail + kTraceFetchSlack;
        for (std::size_t tid = 0; tid < members_.size(); ++tid)
            oracles_[tid] = OracleMemo::global().classify(
                members_[tid], cfg_.seed, span, cfg_.mem);
    }

    starts_.assign(std::size_t(plan_.samples), 0);
    WarmChain::Participant me;
    me.run = [this](int i, WarmPoint &point,
                    const std::function<void(const char *)> &inner) {
        return runSample(i, point, inner);
    };
    chain_ = WarmChain::join(std::move(spec), me);
    chain_->participate(me, phase);
    std::vector<Metrics> &runs = me.results;

    Metrics agg = averageMetrics(runs, runs.front().workload);
    SamplingStats &s = agg.sampling;
    s.samples = plan_.samples;
    s.fastForward = plan_.fastForward;
    s.warmup = plan_.warmup;
    s.detail = plan_.detail;
    s.ffKips = chain_->fastForward().kips();
    s.sampleIpcs.reserve(runs.size());
    for (const Metrics &m : runs)
        s.sampleIpcs.push_back(m.ipc);
    double mean = 0.0;
    for (double ipc : s.sampleIpcs)
        mean += ipc / double(s.sampleIpcs.size());
    s.meanIpc = mean;
    if (s.sampleIpcs.size() > 1) {
        double ss = 0.0;
        for (double ipc : s.sampleIpcs)
            ss += (ipc - mean) * (ipc - mean);
        s.ipcStdDev =
            std::sqrt(ss / double(s.sampleIpcs.size() - 1));
        s.ci95Half = studentT95(int(s.sampleIpcs.size()) - 1) *
                     s.ipcStdDev /
                     std::sqrt(double(s.sampleIpcs.size()));
    } else {
        // One observation: no dispersion estimate exists.  NaN (not
        // 0.0) so a --samples=1 run reports "CI unavailable" instead
        // of a zero-width interval, and so any aggregate or gate that
        // touches it is forced to notice (SamplingStats::hasCi).
        s.ipcStdDev = std::numeric_limits<double>::quiet_NaN();
        s.ci95Half = std::numeric_limits<double>::quiet_NaN();
    }
    return agg;
}

Metrics
Sampler::runOnce(const SimConfig &cfg, const std::string &kernel,
                 const SamplePlan &plan, const PhaseFn &phase)
{
    Sampler sampler(cfg, kernel, plan);
    return sampler.run(phase);
}

} // namespace ltp
