#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include <sys/resource.h>

#include "common/sha256.hh"
#include "ltp/oracle.hh"
#include "sample/sampler.hh"
#include "sim/report.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {

/** The calling thread's innermost open span. */
struct OpenSpan
{
    const Tracer *tracer = nullptr;
    int id = -1;
    std::uint64_t cell = 0;
};

thread_local OpenSpan tl_open;

} // namespace

const char *
phaseName(Phase p)
{
    switch (p) {
    case Phase::Off: return "off";
    case Phase::Setup: return "setup";
    case Phase::Reference: return "reference";
    case Phase::Pass: return "pass";
    case Phase::Verify: return "verify";
    }
    return "?";
}

Tracer::Tracer(bool enabled, Clock::time_point epoch)
    : enabled_(enabled), epoch_(epoch)
{
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

int
Tracer::open(const std::string &name, std::uint64_t cell, int parent)
{
    Phase phase = phase_.load();
    if (!enabled_ || phase == Phase::Off)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.cell = cell;
    s.phase = phase;
    s.start = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return int(spans_.size()) - 1;
}

void
Tracer::close(int id, std::uint64_t ops, int flag, double est)
{
    if (id < 0)
        return;
    double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &s = spans_[std::size_t(id)];
    s.end = t;
    s.ops = ops;
    s.flag = flag;
    s.est = est;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Scope::Scope(Tracer &tracer, const char *name, std::uint64_t cell)
    : tracer_(tracer)
{
    if (!tracer.recording())
        return;
    bool nested = tl_open.tracer == &tracer && tl_open.id >= 0;
    if (cell == 0 && nested)
        cell = tl_open.cell;
    id_ = tracer.open(name, cell, nested ? tl_open.id : tracer.root());
    saved_tracer_ = tl_open.tracer;
    saved_id_ = tl_open.id;
    saved_cell_ = tl_open.cell;
    tl_open = OpenSpan{&tracer, id_, cell};
}

Scope::~Scope()
{
    if (id_ < 0)
        return;
    tracer_.close(id_, ops_, flag_, est_);
    tl_open = OpenSpan{saved_tracer_, saved_id_, saved_cell_};
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[std::size_t(spans[i].parent)].push_back(i);

    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<double, double>> iv;
        for (std::size_t c : children[i]) {
            double a = std::max(spans[c].start, s.start);
            double b = std::min(spans[c].end, s.end);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (const auto &[a, b] : iv) {
            if (a > hi) {
                if (hi > lo)
                    covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        if (hi > lo)
            covered += hi - lo;
        self[i] = s.duration() - covered;
    }
    return self;
}

void
LayerTotals::add(const LayerTotals &o)
{
    count += o.count;
    total += o.total;
    self += o.self;
    est += o.est;
    ops += o.ops;
    durations.insert(durations.end(), o.durations.begin(),
                     o.durations.end());
}

Summary
summarize(const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimes(spans);
    Summary out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        LayerTotals &t = out[s.phase][s.name];
        t.count += 1;
        t.total += s.duration();
        t.self += self[i];
        t.est += s.est;
        t.ops += s.ops;
        t.durations.push_back(s.duration());
    }
    return out;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
    char buf[512];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "{\"phase\":\"%s\",\"id\":%zu,\"name\":\"%s\","
                      "\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                      "\"cell\":%llu,\"ops\":%llu,\"flag\":%d,"
                      "\"est\":%.9f}\n",
                      phaseName(s.phase), i, s.name.c_str(), s.start,
                      s.end, s.parent, (unsigned long long)s.cell,
                      (unsigned long long)s.ops, s.flag, s.est);
        out << buf;
    }
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/** 0-based nearest-rank index of @p pct among @p n samples. */
std::size_t
rankIndex(std::size_t n, double pct)
{
    double r = std::ceil(pct / 100.0 * double(n) - 1e-9);
    return std::size_t(std::max(1.0, r)) - 1;
}

} // namespace

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[std::min(rankIndex(v.size(), pct), v.size() - 1)];
}

Tail
tailPercentile(const std::vector<double> &v, std::size_t chooseN)
{
    static const double kLadder[] = {50,   75,   90,    95,   99,
                                     99.5, 99.9, 99.95, 99.99};
    std::size_t n = chooseN ? chooseN : v.size();
    Tail t;
    t.pct = 50;
    for (double p : kLadder)
        if (n >= 1 && n - (rankIndex(n, p) + 1) >= 10)
            t.pct = p;
    t.samples = v.size();
    t.value = percentile(v, t.pct);
    t.beyond = v.empty() ? 0 : v.size() - (rankIndex(v.size(), t.pct) + 1);
    return t;
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

std::string
digest(const ltp::Metrics &m)
{
    ltp::Metrics c = m;
    c.sampling.ffKips = 0.0;
    return ltp::sha256Hex(ltp::metricsToJson(c));
}

GridDigest
gridDigest(const ltp::ResultGrid &grid)
{
    GridDigest out;
    for (const std::string &row : grid.rows())
        for (const std::string &series : grid.series(row))
            out[row + "|" + series] = digest(grid.at(row, series));
    return out;
}

std::uint64_t
mismatchedCells(const ltp::SweepSpec &spec, const GridDigest &got,
                const GridDigest &ref)
{
    std::uint64_t bad = 0;
    for (const ltp::SweepJob &job : spec.jobs) {
        std::string k = job.row + "|" + job.series;
        auto g = got.find(k);
        auto r = ref.find(k);
        if (g == got.end() || r == ref.end() || g->second != r->second)
            bad += job.kernels.size();
    }
    return bad;
}

std::uint64_t
nextRandom(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
hitShareError(const std::vector<CellTiming> &cells, std::uint64_t seeded)
{
    std::uint64_t hits = 0;
    for (const CellTiming &c : cells)
        hits += c.hit ? 1 : 0;
    return hits > seeded ? hits - seeded : seeded - hits;
}

void
Tally::add(std::uint64_t cells, std::uint64_t bad, const std::string &what)
{
    attempted += cells;
    failed += bad;
    if (bad)
        notes.push_back(what + ": " + std::to_string(bad) + " of " +
                        std::to_string(cells) + " cells");
}

double
Tally::failedFrac() const
{
    return attempted ? double(failed) / double(attempted) : 0.0;
}

// ---------------------------------------------------------------------------
// TimedBackend
// ---------------------------------------------------------------------------

TimedBackend::TimedBackend(ltp::ExecBackendPtr inner, Tracer &tracer,
                           Clock::time_point epoch)
    : inner_(std::move(inner)), tracer_(tracer), epoch_(epoch)
{
}

ltp::CellResult
TimedBackend::runCell(const ltp::CellKey &, const ltp::SimConfig &cfg,
                      const std::string &workload,
                      const ltp::RunLengths &lengths,
                      const ltp::SamplePlan &sampling)
{
    std::uint64_t call = calls_.fetch_add(1) + 1;
    CellTiming t;
    t.start = secondsSince(epoch_);
    ltp::CellResult r;
    {
        Scope cell(tracer_, "exec.runCell", call);
        ltp::CellKey key;
        if (inner_->wantsKey()) {
            Scope k(tracer_, "cell.key");
            key = ltp::cellKeyFor(cfg, workload, lengths, &sampling);
        }
        if (inner_->name() == "serve") {
            Scope s(tracer_, "serve.runCell");
            r = inner_->runCell(key, cfg, workload, lengths, sampling);
            s.setFlag(r.cacheHit ? 1 : 0);
        } else {
            r = inner_->runCell(key, cfg, workload, lengths, sampling);
        }
        cell.setFlag(r.cacheHit ? 1 : 0);
    }
    t.end = secondsSince(epoch_);
    t.hit = r.cacheHit;
    if (call == inject_at_.load())
        r.metrics.insts += 1;
    const ltp::Metrics &m = r.metrics;
    std::lock_guard<std::mutex> lock(mutex_);
    timings_.push_back(t);
    counts_.cells += 1;
    counts_.insts += m.insts;
    counts_.cycles += m.cycles;
    counts_.parked += m.parked;
    counts_.unparked += m.unparked;
    counts_.dramReads += m.dramReads;
    if (m.sampling.enabled()) {
        counts_.sampledCells += 1;
        counts_.ci95RelSum += m.sampling.hasCi() && m.sampling.meanIpc > 0
                                  ? m.sampling.ci95Half / m.sampling.meanIpc
                                  : 0.0;
    }
    return r;
}

void
CellCounts::add(const CellCounts &o)
{
    cells += o.cells;
    insts += o.insts;
    cycles += o.cycles;
    parked += o.parked;
    unparked += o.unparked;
    dramReads += o.dramReads;
    sampledCells += o.sampledCells;
    ci95RelSum += o.ci95RelSum;
}

CellCounts
TimedBackend::counts()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
}

std::vector<CellTiming>
TimedBackend::take()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CellTiming> out;
    out.swap(timings_);
    return out;
}

// ---------------------------------------------------------------------------
// DecomposedBackend
// ---------------------------------------------------------------------------

ltp::CellResult
DecomposedBackend::runCell(const ltp::CellKey &, const ltp::SimConfig &cfg,
                           const std::string &workload,
                           const ltp::RunLengths &lengths,
                           const ltp::SamplePlan &sampling)
{
    return ltp::CellResult{sampling.enabled()
                               ? sampled(cfg, workload, sampling)
                               : full(cfg, workload, lengths),
                           false};
}

namespace {

/** Every kWarmSampleEvery-th step of the functional-warm loop times its
 *  Workload::next calls. */
constexpr std::uint64_t kWarmSampleEvery = 16;

/** What a back-to-back pair of clock reads measures: the bias of one
 *  timed interval, taken off each sampled next() call. */
double
clockPairSeconds()
{
    static const double cost = [] {
        std::vector<double> d(2001);
        for (double &x : d) {
            Clock::time_point a = Clock::now();
            x = std::chrono::duration<double>(Clock::now() - a).count();
        }
        return median(d);
    }();
    return cost;
}

} // namespace

/**
 * The Simulator constructor and run(), one public piece at a time, in
 * the constructor's order.  Its functional-warm loop interleaves
 * Workload::next and MemSystem::warmAccess one micro-op at a time; it
 * runs here as that same loop (span sim.warm), and every
 * kWarmSampleEvery-th step times its next() calls, so the span carries
 * an estimate of its trace-generation seconds and the rest is the warm.
 */
ltp::Metrics
DecomposedBackend::full(const ltp::SimConfig &cfg_in,
                        const std::string &kernel,
                        const ltp::RunLengths &lengths)
{
    using namespace ltp;
    SimConfig cfg = cfg_in;
    std::vector<WorkloadPtr> workloads;
    std::vector<OracleClassification> oracles;
    std::unique_ptr<MemSystem> mem;
    std::vector<std::unique_ptr<TraceWindow>> windows;
    std::unique_ptr<Core> core;
    {
        Scope construct(tracer_, "sim.construct");
        std::vector<std::string> members =
            resolveWorkloadMembers(cfg, kernel);
        int n = cfg.core.numThreads;
        for (const std::string &member : members)
            workloads.push_back(makeKernel(member));

        oracles.resize(workloads.size());
        if (cfg.core.ltp.mode != LtpMode::Off &&
            cfg.core.ltp.classifier == ClassifierKind::Oracle) {
            Scope oracle(tracer_, "ltp.oracle");
            std::uint64_t region = lengths.funcWarm + lengths.pipeWarm +
                                   lengths.detail + kTraceFetchSlack;
            for (std::size_t tid = 0; tid < members.size(); ++tid) {
                WorkloadPtr oracle_wl = makeKernel(members[tid]);
                oracles[tid] = oracleClassify(*oracle_wl, cfg.seed,
                                              region, cfg.mem);
                oracles[tid].setBase(lengths.funcWarm);
            }
            oracle.setOps(region * members.size());
        }

        mem = std::make_unique<MemSystem>(cfg.mem);
        {
            Scope warm(tracer_, "sim.warm");
            bool sample = tracer_.recording();
            double genSampled = 0.0, bias = clockPairSeconds();
            std::uint64_t opsSampled = 0;
            for (auto &w : workloads)
                w->reset(cfg.seed);
            for (std::uint64_t i = 0; i < lengths.funcWarm; ++i) {
                bool timed = sample && i % kWarmSampleEvery == 0;
                for (int tid = 0; tid < n; ++tid) {
                    MicroOp op;
                    if (timed) {
                        Clock::time_point t0 = Clock::now();
                        op = workloads[std::size_t(tid)]->next();
                        genSampled += std::chrono::duration<double>(
                                          Clock::now() - t0)
                                          .count() -
                                      bias;
                        opsSampled += 1;
                    } else {
                        op = workloads[std::size_t(tid)]->next();
                    }
                    if (op.isMem())
                        mem->warmAccess(op.pc + threadAddrBase(tid),
                                        op.effAddr + threadAddrBase(tid),
                                        op.isStore(), 0);
                }
            }
            std::uint64_t ops = std::uint64_t(n) * lengths.funcWarm;
            warm.setOps(ops);
            if (opsSampled)
                warm.setEstimate(std::max(0.0, genSampled) * double(ops) /
                                 double(opsSampled));
        }

        std::size_t max_window = 0;
        if (!isInfinite(cfg.core.robSize) &&
            !isInfinite(cfg.core.fetchQueueCap))
            max_window = std::size_t(cfg.core.robSize) +
                         std::size_t(cfg.core.fetchQueueCap) +
                         std::size_t(cfg.core.fetchWidth);
        std::vector<InstSource *> sources;
        std::vector<const OracleClassification *> oracle_ptrs;
        for (std::size_t tid = 0; tid < workloads.size(); ++tid) {
            windows.push_back(
                std::make_unique<TraceWindow>(*workloads[tid], max_window));
            sources.push_back(windows.back().get());
            oracle_ptrs.push_back(oracles[tid].valid() ? &oracles[tid]
                                                       : nullptr);
        }
        core = std::make_unique<Core>(cfg.core, *mem, sources, oracle_ptrs);
    }

    Scope run(tracer_, "sim.run");
    std::vector<Workload *> wl;
    for (const WorkloadPtr &w : workloads)
        wl.push_back(w.get());
    Metrics m = runDetailPhases(cfg, *core, *mem, wl, lengths.pipeWarm,
                                lengths.detail);
    run.setOps(core->cycle());
    return m;
}

/** Sampler::run with one span per [fast-forward | warmup | detail]
 *  phase, cut at the boundaries its PhaseFn reports. */
ltp::Metrics
DecomposedBackend::sampled(const ltp::SimConfig &cfg,
                           const std::string &kernel,
                           const ltp::SamplePlan &plan)
{
    std::unique_ptr<ltp::Sampler> sampler;
    {
        Scope c(tracer_, "sample.construct");
        sampler = std::make_unique<ltp::Sampler>(cfg, kernel, plan);
    }
    Scope run(tracer_, "sample.run");
    int phase = -1;
    auto cut = [&](const char *next) {
        if (phase >= 0)
            tracer_.close(phase);
        phase = next ? tracer_.open(next, tl_open.cell, run.id()) : -1;
    };
    ltp::Metrics m = sampler->run([&](const std::string &label) {
        if (label.rfind("fast-forward", 0) == 0)
            cut("sample.ff");
        else if (label.rfind("warmup", 0) == 0)
            cut("sample.warmup");
        else
            cut("sample.detail");
    });
    cut(nullptr);
    run.setOps(sampler->fastForward().retired());
    return m;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // kB on Linux
}

} // namespace perfbench
