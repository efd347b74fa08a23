#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>

#include "common/json.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/cell_key.hh"
#include "sim/config.hh"
#include "sim/result_cache.hh"
#include "sim/scenario.hh"
#include "trace/suite.hh"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

constexpr int kMinPasses = 5;
constexpr int kSetupBursts = 8;
constexpr double kSetupBurstSeconds = 0.5;

std::string
tailNote(const std::string &name, const Tail &t)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s is p%g of %zu samples (%zu beyond it)", name.c_str(),
                  t.pct, t.samples, t.beyond);
    return buf;
}

/** Instantiate (and reset) every workload the grid names: the kernel
 *  registry part of set-up, and a fail-fast check on the names. */
void
loadKernels(const ltp::SweepSpec &spec, std::uint64_t seed)
{
    std::set<std::string> names;
    for (const ltp::SweepJob &job : spec.jobs)
        names.insert(job.kernels.begin(), job.kernels.end());
    for (const std::string &name : names)
        ltp::makeKernel(name)->reset(seed);
}

/** Serial reference over @p spec through @p inner, recorded in the
 *  tracer's current phase; @return its grid digest, and its per-cell
 *  timings and exact counts via the out parameters. */
GridDigest
serialReference(const ltp::SweepSpec &spec, ltp::ExecBackendPtr inner,
                Tracer &tracer, std::vector<CellTiming> *timings,
                CellCounts *counts)
{
    auto timed = std::make_shared<TimedBackend>(std::move(inner), tracer,
                                                Clock::now());
    ltp::Runner runner(1, timed);
    GridDigest out;
    {
        Scope root(tracer, "reference.run");
        tracer.setRoot(root.id());
        out = gridDigest(runner.run(spec).grid);
        tracer.setRoot(-1);
    }
    if (timings)
        *timings = timed->take();
    if (counts)
        *counts = timed->counts();
    return out;
}

// ---------------------------------------------------------------------------
// Workload interface
// ---------------------------------------------------------------------------

class Bench
{
  public:
    virtual ~Bench() = default;

    /** Untimed, once before the first set-up: work a user did before
     *  this run (the earlier sweep whose results seed a cache). */
    virtual void prepare(Tracer &) {}

    /** Everything before the first timed cell; timed and repeated. */
    virtual void setup(Tracer &tracer) = 0;

    /** Untimed undo of setup() before a repeat, since a user's set-up
     *  starts from nothing. */
    virtual void teardown() {}

    virtual const ltp::SweepSpec &spec() const = 0;

    /** The backend timed passes run on; @p traced selects the
     *  span-instrumented variant. */
    virtual ltp::ExecBackendPtr backend(Tracer &tracer, bool traced) = 0;

    /** Untimed reset before each pass. */
    virtual void beforePass() {}

    /** Per-pass checks (and bookkeeping) on what the Runner saw. */
    virtual void checkPass(const std::vector<CellTiming> &, Tally &) {}

    /** Detailed instructions one pass simulates (for sim_kips). */
    virtual std::uint64_t computedInsts() const = 0;

    /**
     * The untimed serial reference digest of every cell, and its exact
     * counts, entered in Phase::Reference.  Served workloads compute
     * their misses here through the decomposed path.
     */
    virtual GridDigest
    reference(Tracer &tracer, CellCounts *counts)
    {
        tracer.setPhase(Phase::Off);
        return serialReference(spec(), ltp::LocalBackend::instance(),
                               tracer, nullptr, counts);
    }

    /** Checks on the state the timed loop left behind. */
    virtual void verify(Tracer &, const GridDigest &, Tally &) {}

    /** The phase whose spans hold the compute layers (trace, ltp, mem,
     *  cpu): the traced passes, unless those compute out of sight. */
    virtual Phase computePhase() const { return Phase::Pass; }

    /** Workload-specific per-layer metrics from every span. */
    virtual void layerMetrics(Report &, const std::vector<Span> &) {}
};

/** Shared by the local workloads: plain LocalBackend, or the
 *  decomposed one when traced. */
ltp::ExecBackendPtr
localBackend(Tracer &tracer, bool traced)
{
    if (traced)
        return std::make_shared<DecomposedBackend>(tracer);
    return ltp::LocalBackend::instance();
}

// ---------------------------------------------------------------------------
// fig6_cold: the Figure 6 IQ limit-study grid, uncached, local
// ---------------------------------------------------------------------------

class Fig6Cold : public Bench
{
  public:
    explicit Fig6Cold(const Options &opt) : opt_(opt) {}

    void
    setup(Tracer &tracer) override
    {
        Scope s(tracer, "setup.compile");
        std::string text =
            R"JSON({"name": "fig6_cold",
                "lengths": {"funcWarm": 6000, "pipeWarm": 1000,
                            "detail": 3000},
                "seed": )JSON" +
            std::to_string(opt_.seed) + R"JSON(,
                "workloads": {"panels": true},
                "configs": [
                  {"series": "No LTP", "preset": "limitStudy", "mode": "off"},
                  {"series": "LTP (NR)", "preset": "limitStudy", "mode": "NR"},
                  {"series": "LTP (NU)", "preset": "limitStudy", "mode": "NU"},
                  {"series": "LTP (NR+NU)", "preset": "limitStudy",
                   "mode": "NR+NU"}],
                "sweep": {"path": "core.iq",
                          "values": ["inf", 128, 64, 32, 16],
                          "baseline": {"series": "No LTP", "value": 64}}})JSON";
        spec_ = ltp::scenarioFromJson(text).compile(opt_.threads);
        loadKernels(spec_, opt_.seed);
    }

    const ltp::SweepSpec &spec() const override { return spec_; }

    ltp::ExecBackendPtr
    backend(Tracer &tracer, bool traced) override
    {
        return localBackend(tracer, traced);
    }

    std::uint64_t
    computedInsts() const override
    {
        return spec_.simulationCount() *
               (spec_.lengths.pipeWarm + spec_.lengths.detail);
    }

  private:
    Options opt_;
    ltp::SweepSpec spec_;
};

// ---------------------------------------------------------------------------
// sampled_long: SMARTS-style sampled suite, fast-forward dominated
// ---------------------------------------------------------------------------

class SampledLong : public Bench
{
  public:
    explicit SampledLong(const Options &opt) : opt_(opt) {}

    void
    setup(Tracer &tracer) override
    {
        Scope s(tracer, "setup.compile");
        std::string kernels;
        for (const std::string &k : ltp::allKernelNames())
            kernels += (kernels.empty() ? "\"" : ", \"") + k + "\"";
        std::string text =
            R"JSON({"name": "sampled_long", "seed": )JSON" +
            std::to_string(opt_.seed) +
            R"JSON(, "workloads": {"kernels": [)JSON" + kernels + R"JSON(]},
                "configs": [
                  {"series": "baseline", "preset": "baseline"},
                  {"series": "LTP (NR+NU)", "preset": "ltpProposal",
                   "mode": "NR+NU"}],
                "sampling": {"fastForward": 200000, "warmup": 2000,
                             "detail": 5000, "samples": 8}})JSON";
        spec_ = ltp::scenarioFromJson(text).compile(opt_.threads);
        loadKernels(spec_, opt_.seed);
    }

    const ltp::SweepSpec &spec() const override { return spec_; }

    ltp::ExecBackendPtr
    backend(Tracer &tracer, bool traced) override
    {
        return localBackend(tracer, traced);
    }

    std::uint64_t
    computedInsts() const override
    {
        const ltp::SamplePlan &p = spec_.sampling;
        return spec_.simulationCount() * std::uint64_t(p.samples) *
               (p.warmup + p.detail);
    }

    GridDigest
    reference(Tracer &tracer, CellCounts *counts) override
    {
        // Trace generation happens inside fast-forward, out of reach
        // of a span; time it beside the grid on each kernel's stream.
        if (tracer.recording()) {
            std::set<std::string> names;
            for (const ltp::SweepJob &job : spec_.jobs)
                names.insert(job.kernels.begin(), job.kernels.end());
            for (const std::string &name : names) {
                Scope gen(tracer, "trace.gen");
                ltp::WorkloadPtr w = ltp::makeKernel(name);
                w->reset(opt_.seed);
                for (std::uint64_t i = 0; i < spec_.sampling.fastForward;
                     ++i)
                    (void)w->next();
                gen.setOps(spec_.sampling.fastForward);
            }
        }
        return Bench::reference(tracer, counts);
    }

  private:
    Options opt_;
    ltp::SweepSpec spec_;
};

// ---------------------------------------------------------------------------
// resweep_served: a seeded grid, 90% pre-cached, through a frontend
// daemon with two worker daemons
// ---------------------------------------------------------------------------

/** Frontend counters from the stats RPC, summed over workers. */
struct ServeCounters
{
    double computed = 0, cacheHits = 0, peerHits = 0;
    double dispatched = 0, retried = 0, failed = 0;
};

ServeCounters
readStats(ltp::ServeBackend &client, Tracer &tracer)
{
    ltp::JsonValue v;
    {
        Scope s(tracer, "serve.stats");
        v = client.rpc("stats");
    }
    auto num = [](const ltp::JsonValue &o, const char *k) {
        auto it = o.object.find(k);
        return it == o.object.end() ? 0.0 : it->second.num;
    };
    ServeCounters c;
    c.computed = num(v, "computed");
    c.cacheHits = num(v, "cacheHits");
    c.peerHits = num(v, "peerHits");
    auto w = v.object.find("workers");
    if (w != v.object.end())
        for (const ltp::JsonValue &ws : w->second.array) {
            c.dispatched += num(ws, "dispatched");
            c.retried += num(ws, "retried");
            c.failed += num(ws, "failed");
        }
    return c;
}

class ResweepServed : public Bench
{
  public:
    static constexpr int kWorkers = 2;
    static constexpr int kWorkerThreads = 1;
    static constexpr std::size_t kConfigs = 18;

    explicit ResweepServed(const Options &opt)
        : opt_(opt), seedDir_(opt.workDir + "/seeded-cache"),
          frontDir_(opt.workDir + "/frontend-cache")
    {
        for (int i = 0; i < kWorkers; ++i)
            workerDirs_.push_back(opt.workDir + "/worker" +
                                  std::to_string(i) + "-cache");
    }

    ~ResweepServed() override { teardown(); }

    /** The earlier sweep: the seeded cells, computed locally and
     *  stored through the cache API into a cache every set-up copies. */
    void
    prepare(Tracer &tracer) override
    {
        makeGrid();
        ltp::SweepSpec seeded = spec_;
        seeded.jobs.clear();
        for (std::size_t i = 0; i < spec_.jobs.size(); ++i)
            if (hit_[i])
                seeded.jobs.push_back(spec_.jobs[i]);
        ltp::ResultGrid grid =
            ltp::Runner(opt_.threads, ltp::LocalBackend::instance())
                .run(seeded)
                .grid;
        ltp::ResultCache seedCache(seedDir_);
        for (std::size_t i = 0; i < spec_.jobs.size(); ++i) {
            const ltp::SweepJob &job = spec_.jobs[i];
            ltp::CellKey key =
                ltp::cellKeyFor(job.cfg, job.kernels[0], spec_.lengths,
                                &spec_.sampling);
            if (!hit_[i]) {
                missKeys_.insert(key.hex);
                continue;
            }
            Scope s(tracer, "cache.store");
            seedCache.store(key, job.cfg, spec_.lengths,
                            grid.at(job.row, job.series));
        }
    }

    void
    setup(Tracer &tracer) override
    {
        makeGrid();
        loadKernels(spec_, opt_.seed);

        // A fresh copy of the earlier sweep's cache for the frontend.
        // Entries are immutable files (the cache replaces an entry by
        // renaming a new file over it), so the copy hard-links them.
        fs::copy(seedDir_, frontDir_,
                 fs::copy_options::recursive |
                     fs::copy_options::create_hard_links);

        // Daemons: two single-threaded workers, and a frontend that
        // dispatches to them.  Two simulation threads leave the other
        // cores to the wire path (Runner threads, daemon readers):
        // with a simulation thread per core the hit round trips queue
        // behind the misses for a CPU, and the pass wall swings 2-3x
        // from run to run.
        ltp::ServeOptions front;
        front.port = 0;
        front.threads = opt_.threads;
        front.cacheDir = frontDir_;
        front.quiet = true;
        for (int i = 0; i < kWorkers; ++i) {
            ltp::ServeOptions w;
            w.port = 0;
            w.threads = kWorkerThreads;
            w.cacheDir = workerDirs_[std::size_t(i)];
            w.quiet = true;
            workers_.push_back(std::make_unique<ltp::Server>(w));
            workers_.back()->start();
            front.workers.push_back("127.0.0.1:" +
                                    std::to_string(workers_.back()->port()));
        }
        frontend_ = std::make_unique<ltp::Server>(front);
        frontend_->start();

        client_ = std::make_shared<ltp::ServeBackend>(
            "127.0.0.1", frontend_->port());
        before_ = readStats(*client_, tracer);
    }

    /** Stop the daemons and empty their caches (entry files only: the
     *  shard directories stay, as in any cache in use, so set-ups and
     *  passes do not time directory creations a real re-sweep would
     *  not make). */
    void
    teardown() override
    {
        client_.reset();
        frontend_.reset();
        workers_.clear();
        for (const std::string &d : workerDirs_)
            removeFiles(d, [](const fs::path &) { return true; });
        removeFiles(frontDir_, [](const fs::path &) { return true; });
        passes_ = 0;
    }

    const ltp::SweepSpec &spec() const override { return spec_; }

    ltp::ExecBackendPtr
    backend(Tracer &, bool) override
    {
        return client_;
    }

    /** The daemons compute out of the benchmark's sight: the compute
     *  layers come from the standalone computation of the misses. */
    Phase computePhase() const override { return Phase::Reference; }

    void
    beforePass() override
    {
        resetCaches();
        passes_ += 1;
    }

    void
    checkPass(const std::vector<CellTiming> &cells, Tally &tally) override
    {
        tally.add(0, hitShareError(cells, seededCount()),
                  "cache hits differ from the seeded cells");
        double lo = 1e300, hi = -1e300;
        for (const CellTiming &c : cells)
            if (!c.hit) {
                lo = std::min(lo, c.start);
                hi = std::max(hi, c.end);
            }
        if (hi > lo)
            missMakespans_.push_back(hi - lo);
    }

    std::uint64_t
    computedInsts() const override
    {
        return (spec_.jobs.size() - seededCount()) *
               (spec_.lengths.pipeWarm + spec_.lengths.detail);
    }

    GridDigest
    reference(Tracer &tracer, CellCounts *counts) override
    {
        // Serial local reference: the misses through the decomposed
        // path (their standalone costs), the rest plain and untraced.
        ltp::SweepSpec missSpec = spec_, hitSpec = spec_;
        missSpec.jobs.clear();
        hitSpec.jobs.clear();
        for (std::size_t i = 0; i < spec_.jobs.size(); ++i)
            (hit_[i] ? hitSpec : missSpec).jobs.push_back(spec_.jobs[i]);
        GridDigest ref = serialReference(
            missSpec, localBackend(tracer, tracer.recording()), tracer,
            &missCosts_, counts);
        tracer.setPhase(Phase::Off);
        CellCounts hitCounts;
        GridDigest hitRef =
            serialReference(hitSpec, ltp::LocalBackend::instance(), tracer,
                            nullptr, &hitCounts);
        ref.insert(hitRef.begin(), hitRef.end());
        counts->add(hitCounts);
        return ref;
    }

    void
    verify(Tracer &tracer, const GridDigest &ref, Tally &tally) override
    {
        // Daemon counters over every pass: each miss is dispatched to
        // a worker and computed once; each seeded cell is a hit.
        ServeCounters after = readStats(*client_, tracer);
        double n = double(passes_);
        double misses = double(spec_.jobs.size() - seededCount());
        auto expect = [&](double got, double want, const char *what) {
            double bad = got > want ? got - want : want - got;
            tally.add(0, std::uint64_t(bad), what);
        };
        expect(after.computed - before_.computed, n * misses,
               "daemon computed count");
        expect(after.cacheHits - before_.cacheHits,
               n * double(seededCount()), "daemon cache-hit count");
        expect(after.dispatched - before_.dispatched, n * misses,
               "worker dispatch count");
        perPass_.peerHits = (after.peerHits - before_.peerHits) / n;
        perPass_.dispatched = (after.dispatched - before_.dispatched) / n;
        perPass_.retried = (after.retried - before_.retried) / n;
        perPass_.failed = (after.failed - before_.failed) / n;

        // The frontend cache now holds every cell (seeded hits plus
        // stored misses); each entry must equal the local result.
        ltp::ResultCache front(frontDir_);
        std::uint64_t bad = 0;
        for (const ltp::SweepJob &job : spec_.jobs) {
            ltp::CellKey key =
                ltp::cellKeyFor(job.cfg, job.kernels[0], spec_.lengths,
                                &spec_.sampling);
            ltp::Metrics m;
            bool found;
            {
                Scope s(tracer, "cache.lookup");
                found = front.lookup(key, &m);
            }
            auto want = ref.find(job.row + "|" + job.series);
            if (!found || want == ref.end() || digest(m) != want->second)
                bad += 1;
        }
        tally.add(spec_.jobs.size(), bad,
                  "frontend cache entries vs local reference");
    }

    void
    layerMetrics(Report &rep, const std::vector<Span> &spans) override
    {
        std::vector<double> hit, miss;
        std::size_t passes = 0;
        for (const Span &s : spans) {
            if (s.phase != Phase::Pass)
                continue;
            if (s.name == "serve.runCell")
                (s.flag ? hit : miss).push_back(s.duration() * 1e3);
            passes += s.name == "runner.run" ? 1 : 0;
        }
        passes = std::max<std::size_t>(passes, 1);
        Tail ht = tailPercentile(hit, seededCount() * passes);
        Tail mt = tailPercentile(miss, (spec_.jobs.size() - seededCount()) *
                                           passes);
        auto set = [&](const char *k, double v) {
            rep.metrics[k].value = v;
        };
        set("serve.hit_rtt_p50_ms", median(hit));
        set("serve.hit_rtt_tail_ms", ht.value);
        set("serve.miss_rtt_p50_ms", median(miss));
        set("serve.miss_rtt_tail_ms", mt.value);
        rep.notes.push_back(tailNote("serve.hit_rtt_tail_ms", ht));
        rep.notes.push_back(tailNote("serve.miss_rtt_tail_ms", mt));
        set("serve.wire_us", median(hit) * 1e3 -
                                 rep.metrics["sim.cache_lookup_us"].value);
        set("serve.hit_frac",
            double(seededCount()) / double(spec_.jobs.size()));
        set("serve.peer_hits", perPass_.peerHits);
        set("serve.dispatched", perPass_.dispatched);
        set("serve.retried", perPass_.retried);
        set("serve.failed", perPass_.failed);

        // Miss-phase makespan against the LPT lower bound
        // max(sum cost / m, max cost), costs from each miss cell's
        // standalone serial compute time.
        double sum = 0.0, longest = 0.0;
        for (const CellTiming &c : missCosts_) {
            sum += c.latency();
            longest = std::max(longest, c.latency());
        }
        double bound = std::max(sum / double(kWorkers * kWorkerThreads), longest);
        set("serve.makespan_ratio",
            bound > 0 ? median(missMakespans_) / bound : 0.0);
    }

  private:
    /** Each pass starts from the seeded frontend cache (the entries
     *  the last pass stored for its misses are removed; entries are
     *  `<key>.json` files) and empty worker caches, so no miss is a
     *  peer hit. */
    void
    resetCaches()
    {
        removeFiles(frontDir_, [this](const fs::path &p) {
            return missKeys_.count(p.stem().string()) > 0;
        });
        for (const std::string &d : workerDirs_)
            removeFiles(d, [](const fs::path &) { return true; });
    }

    static void
    removeFiles(const std::string &dir,
                const std::function<bool(const fs::path &)> &pick)
    {
        if (!fs::exists(dir))
            return;
        std::vector<fs::path> doomed;
        for (const auto &e : fs::recursive_directory_iterator(dir))
            if (e.is_regular_file() && pick(e.path()))
                doomed.push_back(e.path());
        for (const fs::path &p : doomed)
            fs::remove(p);
    }

    std::uint64_t
    seededCount() const
    {
        return std::uint64_t(std::count(hit_.begin(), hit_.end(), true));
    }

    /**
     * The design-space grid: the 14 suite kernels x 18 distinct configs
     * (6 baseline, 6 LTP NU, 6 LTP NR+NU) whose IQ, register file and
     * LTP geometry are drawn from --seed, at small staging so the
     * serve path, not the cycle kernel, carries the time.  Two configs
     * are the series just added, and every cell of theirs misses: one
     * LTP NU and one LTP NR+NU config, drawn from --seed, so each seed
     * misses the same mix of kinds.  16 of 18 cells (88.9%) are hits.
     */
    void
    makeGrid()
    {
        std::uint64_t rng = opt_.seed;
        auto pick = [&rng](std::size_t n) {
            return std::size_t(nextRandom(rng) % n);
        };

        static const int kIq[] = {16, 24, 32, 48, 64, 96, 128};
        static const int kRegs[] = {64, 80, 96, 128, 160};
        static const int kLtpEntries[] = {32, 64, 128};
        static const int kPorts[] = {2, 4};
        std::vector<ltp::SimConfig> configs;
        std::set<std::string> names;
        while (configs.size() < kConfigs) {
            std::size_t preset = configs.size() % 3;
            ltp::SimConfig cfg =
                preset == 0 ? ltp::SimConfig::baseline()
                            : ltp::SimConfig::ltpProposal(
                                  preset == 1 ? ltp::LtpMode::NU
                                              : ltp::LtpMode::NRNU);
            int iq = kIq[pick(7)], regs = kRegs[pick(5)];
            cfg.withIq(iq).withRegs(regs).withSeed(opt_.seed);
            std::string name = std::string(preset == 0   ? "base"
                                           : preset == 1 ? "ltpNU"
                                                         : "ltpNRNU") +
                               "-iq" + std::to_string(iq) + "-rf" +
                               std::to_string(regs);
            if (preset != 0) {
                int entries = kLtpEntries[pick(3)], ports = kPorts[pick(2)];
                cfg.withLtp(cfg.core.ltp.mode, entries, ports);
                name += "-e" + std::to_string(entries) + "p" +
                        std::to_string(ports);
            }
            if (names.insert(name).second)
                configs.push_back(cfg.withName(name));
        }
        spec_ = ltp::SweepSpec::cross("resweep_served", configs,
                                      ltp::allKernelNames(),
                                      ltp::RunLengths{2000, 500, 1500});

        // Config c has preset c % 3: the new NU series is 3j + 1 and
        // the new NR+NU series 3k + 2.  cross() is kernel-major, so
        // job i runs config i % kConfigs.
        std::size_t nu = 3 * pick(kConfigs / 3) + 1;
        std::size_t nrnu = 3 * pick(kConfigs / 3) + 2;
        hit_.assign(spec_.jobs.size(), true);
        for (std::size_t i = 0; i < spec_.jobs.size(); ++i)
            if (i % kConfigs == nu || i % kConfigs == nrnu)
                hit_[i] = false;
    }

    Options opt_;
    std::string seedDir_;  ///< the earlier sweep's cache, never served
    std::string frontDir_; ///< the frontend's copy of it
    std::set<std::string> missKeys_; ///< keys of the unseeded cells
    std::vector<std::string> workerDirs_;
    ltp::SweepSpec spec_;
    std::vector<bool> hit_; ///< per job: seeded into the cache
    std::vector<std::unique_ptr<ltp::Server>> workers_;
    std::unique_ptr<ltp::Server> frontend_;
    std::shared_ptr<ltp::ServeBackend> client_;
    std::uint64_t passes_ = 0; ///< passes since set-up (incl. warm-up)
    ServeCounters before_, perPass_;
    std::vector<CellTiming> missCosts_; ///< standalone serial computes
    std::vector<double> missMakespans_; ///< per pass, first to last miss
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/** Every per-layer metric, in print order, with its unit. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"sim.runner_idle_frac", "ratio"},
    {"sim.redundant_warm_frac", "ratio"},
    {"sim.redundant_oracle_frac", "ratio"},
    {"sim.cell_key_us", "us"},
    {"sim.cache_lookup_us", "us"},
    {"sim.cache_store_us", "us"},
    {"trace.gen_ns_per_op", "ns"},
    {"ltp.oracle_ms", "ms"},
    {"ltp.parked", "count"},
    {"ltp.unparked", "count"},
    {"mem.warm_ms", "ms"},
    {"mem.dram_reads", "count"},
    {"cpu.detail_ms", "ms"},
    {"cpu.detail_share", "ratio"},
    {"cpu.ns_per_sim_cycle", "ns"},
    {"cpu.construct_ms", "ms"},
    {"cpu.sim_cycles", "count"},
    {"cpu.sim_insts", "count"},
    {"sample.ff_ms", "ms"},
    {"sample.ff_share", "ratio"},
    {"sample.ff_kips", "kinst/s"},
    {"sample.warmup_ms", "ms"},
    {"sample.detail_ms", "ms"},
    {"sample.ci95_rel", "ratio"},
    {"serve.hit_rtt_p50_ms", "ms"},
    {"serve.hit_rtt_tail_ms", "ms"},
    {"serve.wire_us", "us"},
    {"serve.miss_rtt_p50_ms", "ms"},
    {"serve.miss_rtt_tail_ms", "ms"},
    {"serve.hit_frac", "ratio"},
    {"serve.peer_hits", "count"},
    {"serve.dispatched", "count"},
    {"serve.retried", "count"},
    {"serve.failed", "count"},
    {"serve.makespan_ratio", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
};

/** Spans whose mean self time per call is reported as
 *  self.<name>_ms. */
const char *const kSelfSpans[] = {
    "runner.run",   "exec.runCell",  "cell.key",         "serve.runCell",
    "sim.construct", "trace.gen",    "ltp.oracle",       "sim.warm",
    "sim.run",      "sample.construct", "sample.run",    "sample.ff",
    "sample.warmup", "sample.detail", "cache.lookup",    "cache.store",
    "serve.stats",
};

/** Shares of cells whose functional-warm or oracle inputs repeat an
 *  earlier cell's (the memoisation headroom). */
std::pair<double, double>
redundantFractions(const ltp::SweepSpec &spec)
{
    std::set<std::string> warm, oracle;
    std::size_t cells = 0, warmRepeats = 0, oracleRepeats = 0;
    for (const ltp::SweepJob &job : spec.jobs) {
        std::string mem = ltp::writeJsonCompact(
            ltp::parseJson(ltp::configToJson(job.cfg)).object.at("mem"));
        for (const std::string &kernel : job.kernels) {
            cells += 1;
            std::string base = kernel + "|" + std::to_string(job.cfg.seed) +
                               "|" + mem + "|";
            if (!spec.sampling.enabled() && spec.lengths.funcWarm > 0 &&
                !warm.insert(base + std::to_string(spec.lengths.funcWarm))
                     .second)
                warmRepeats += 1;
            bool usesOracle =
                job.cfg.core.ltp.mode != ltp::LtpMode::Off &&
                job.cfg.core.ltp.classifier == ltp::ClassifierKind::Oracle;
            std::string span = spec.sampling.enabled()
                                   ? spec.sampling.toString()
                                   : std::to_string(spec.lengths.funcWarm +
                                                    spec.lengths.pipeWarm +
                                                    spec.lengths.detail);
            if (usesOracle && !oracle.insert(base + span).second)
                oracleRepeats += 1;
        }
    }
    double n = double(std::max<std::size_t>(cells, 1));
    return {double(warmRepeats) / n, double(oracleRepeats) / n};
}

std::unique_ptr<Bench>
makeBench(const Options &opt)
{
    if (opt.workload == "fig6_cold")
        return std::make_unique<Fig6Cold>(opt);
    if (opt.workload == "resweep_served")
        return std::make_unique<ResweepServed>(opt);
    if (opt.workload == "sampled_long")
        return std::make_unique<SampledLong>(opt);
    throw std::runtime_error("unknown workload '" + opt.workload + "'");
}

} // namespace

Report
runWorkload(const Options &opt)
{
    Report rep;
    std::unique_ptr<Bench> bench = makeBench(opt);
    Clock::time_point epoch = Clock::now();
    // One tracer for the whole run: each span carries the phase it was
    // opened in, and the untraced passes run in Phase::Off.
    Tracer tracer(opt.trace, epoch);

    // Set-up is timed in bursts spread over the run, so that its median,
    // like the pass walls, sees the machine through the whole run and
    // not only in its first instants.  A burst repeats set-up until it
    // has taken kSetupBurstSeconds (a set-up of microseconds is then
    // not one cold sample) and leaves the workload freshly set up.
    std::vector<double> setups;
    auto setupBurst = [&] {
        tracer.setPhase(Phase::Setup);
        double spent = 0.0;
        do {
            bench->teardown();
            Clock::time_point t0 = Clock::now();
            bench->setup(tracer);
            setups.push_back(secondsSince(t0));
            spent += setups.back();
        } while (spent < kSetupBurstSeconds);
    };
    tracer.setPhase(Phase::Setup);
    bench->prepare(tracer);
    setupBurst();

    const ltp::SweepSpec &spec = bench->spec();
    std::size_t cells = spec.simulationCount();
    auto plain = std::make_shared<TimedBackend>(
        bench->backend(tracer, false), tracer, epoch);
    plain->injectMismatchAt(opt.injectAt);
    ltp::Runner plainRunner(opt.threads, plain);
    std::shared_ptr<TimedBackend> traced;
    std::unique_ptr<ltp::Runner> tracedRunner;
    if (opt.trace) {
        traced = std::make_shared<TimedBackend>(
            bench->backend(tracer, true), tracer, epoch);
        tracedRunner = std::make_unique<ltp::Runner>(opt.threads, traced);
    }

    // The untimed serial reference every pass is checked against.
    CellCounts counts;
    tracer.setPhase(Phase::Reference);
    GridDigest ref = bench->reference(tracer, &counts);

    std::vector<double> walls, tracedWalls, kips, lat;
    int nPlain = 0, nTraced = 0;
    auto runPass = [&](bool tr, bool timed) {
        bench->beforePass();
        tracer.setPhase(tr ? Phase::Pass : Phase::Off);
        ltp::SweepResult res;
        double wall;
        {
            Scope root(tracer, "runner.run");
            tracer.setRoot(root.id());
            Clock::time_point t0 = Clock::now();
            res = (tr ? *tracedRunner : plainRunner).run(spec);
            wall = secondsSince(t0);
            tracer.setRoot(-1);
        }
        int n = tr ? nTraced : nPlain;
        rep.tally.add(cells,
                      mismatchedCells(spec, gridDigest(res.grid), ref),
                      std::string(!timed ? "warm-up"
                                  : tr   ? "traced"
                                         : "untraced") +
                          " pass " + std::to_string(n) +
                          " vs serial reference");
        std::vector<CellTiming> cellTimes = (tr ? *traced : *plain).take();
        bench->checkPass(cellTimes, rep.tally);
        if (!timed)
            return;
        (tr ? nTraced : nPlain) += 1;
        (tr ? tracedWalls : walls).push_back(wall);
        if (!tr) {
            kips.push_back(double(bench->computedInsts()) / wall / 1e3);
            for (const CellTiming &c : cellTimes)
                lat.push_back(c.latency() * 1e3);
        }
    };

    // One untimed warm-up pass, then the timed closed loop, with the
    // remaining set-up bursts at even steps of it.  A set-up may replace
    // the workload's backend (the served one restarts its daemons).
    // Peak memory is read before the first repeated set-up, which is
    // the high-water mark of one set-up, the warm-up pass and the first
    // timed passes: every restart of a daemon leaves more malloc arenas
    // behind, which no user's single set-up would.
    runPass(false, false);
    Clock::time_point loop = Clock::now();
    double step = opt.seconds / kSetupBursts, nextSetup = step, rssMb = 0.0;
    while (secondsSince(loop) < opt.seconds || nPlain < kMinPasses ||
           (opt.trace && nTraced < kMinPasses)) {
        // Before a pass, so a pass always follows the last set-up.
        if (secondsSince(loop) >= nextSetup && nextSetup < opt.seconds) {
            if (rssMb == 0.0)
                rssMb = peakRssMb();
            setupBurst();
            plain->rebind(bench->backend(tracer, false));
            if (traced)
                traced->rebind(bench->backend(tracer, true));
            nextSetup += step;
        }
        runPass(opt.trace && nTraced < nPlain, true);
    }
    if (rssMb == 0.0)
        rssMb = peakRssMb();
    tracer.setPhase(Phase::Verify);
    bench->verify(tracer, ref, rep.tally);
    tracer.setPhase(Phase::Off);

    if (!opt.trace) {
        Tail tail = tailPercentile(lat, cells * kMinPasses);
        rep.metrics["setup_s"] = {median(setups), "s"};
        rep.metrics["wall_s"] = {median(walls), "s"};
        rep.metrics["sim_kips"] = {median(kips), "kinst/s"};
        rep.metrics["cell_p50_ms"] = {median(lat), "ms"};
        rep.metrics["cell_tail_ms"] = {tail.value, "ms"};
        rep.metrics["peak_rss_mb"] = {rssMb, "MB"};
        rep.notes.push_back(tailNote("cell_tail_ms", tail));
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "wall_s is the median of %zu passes (quartiles %.4g, "
                      "%.4g s)",
                      walls.size(), percentile(walls, 25),
                      percentile(walls, 75));
        rep.notes.push_back(buf);
        std::snprintf(buf, sizeof buf,
                      "setup_s is the median of %zu set-ups (quartiles "
                      "%.4g, %.4g s)",
                      setups.size(), percentile(setups, 25),
                      percentile(setups, 75));
        rep.notes.push_back(buf);
        return rep;
    }

    // ---- traced run: per-layer metrics ----
    for (const auto &[name, unit] : kLayerMetrics)
        rep.metrics[name] = {0.0, unit};
    auto set = [&](const char *k, double v) { rep.metrics[k].value = v; };

    std::vector<Span> spans = tracer.spans();
    Summary sum = summarize(spans);
    std::map<std::string, LayerTotals> &P = sum[Phase::Pass];
    // Compute layers: the traced passes, or for the served workload the
    // standalone computation of one pass's misses.
    std::map<std::string, LayerTotals> &C = sum[bench->computePhase()];
    double nc = bench->computePhase() == Phase::Pass ? double(nTraced) : 1.0;

    double busy = P["exec.runCell"].total / nTraced;
    double runnerWall = P["runner.run"].total / nTraced;
    set("sim.runner_idle_frac", 1.0 - busy / (opt.threads * runnerWall));
    auto [warmRep, oracleRep] = redundantFractions(spec);
    set("sim.redundant_warm_frac", warmRep);
    set("sim.redundant_oracle_frac", oracleRep);
    set("sim.cell_key_us", median(P["cell.key"].durations) * 1e6);
    set("sim.cache_lookup_us",
        median(sum[Phase::Verify]["cache.lookup"].durations) * 1e6);
    set("sim.cache_store_us",
        median(sum[Phase::Setup]["cache.store"].durations) * 1e6);

    // Full cells: the next() share the warm loop estimates.  Sampled
    // runs generate their streams inside fast-forward; their rate comes
    // from the standalone streams instead.
    const LayerTotals &warm = C["sim.warm"];
    const LayerTotals &gen = sum[Phase::Reference]["trace.gen"];
    set("trace.gen_ns_per_op", warm.ops  ? warm.est / warm.ops * 1e9
                               : gen.ops ? gen.total / gen.ops * 1e9
                                         : 0.0);
    set("ltp.oracle_ms", C["ltp.oracle"].self / nc * 1e3);
    set("ltp.parked", double(counts.parked));
    set("ltp.unparked", double(counts.unparked));
    set("mem.warm_ms", (warm.self - warm.est) / nc * 1e3);
    set("mem.dram_reads", double(counts.dramReads));

    double detail = (C["sim.run"].self + C["sample.warmup"].self +
                     C["sample.detail"].self) /
                    nc;
    // Host time per simulated cycle pairs each span with the cycles it
    // simulates: sim.run with the core's cycles (pipeline warm plus
    // detail); a sampled cell's detail phases with its Metrics cycles,
    // summed over samples (warmup cycles are not counted anywhere).
    double cycles = double(C["sim.run"].ops) / nc +
                    (spec.sampling.enabled() ? double(counts.cycles) : 0.0);
    double cycleTime = (C["sim.run"].self + C["sample.detail"].self) / nc;
    set("cpu.detail_ms", detail * 1e3);
    set("cpu.detail_share", busy > 0 ? detail / busy : 0.0);
    set("cpu.ns_per_sim_cycle",
        cycles > 0 ? cycleTime / cycles * 1e9 : 0.0);
    set("cpu.construct_ms",
        (C["sim.construct"].self + C["sample.construct"].self) / nc * 1e3);
    set("cpu.sim_cycles", double(counts.cycles));
    set("cpu.sim_insts", double(counts.insts));

    double ff = C["sample.ff"].self / nc;
    set("sample.ff_ms", ff * 1e3);
    set("sample.ff_share", busy > 0 ? ff / busy : 0.0);
    set("sample.ff_kips", C["sample.ff"].total > 0
                              ? double(C["sample.run"].ops) /
                                    C["sample.ff"].total / 1e3
                              : 0.0);
    set("sample.warmup_ms", C["sample.warmup"].self / nc * 1e3);
    set("sample.detail_ms", C["sample.detail"].self / nc * 1e3);
    set("sample.ci95_rel", counts.sampledCells
                               ? counts.ci95RelSum /
                                     double(counts.sampledCells)
                               : 0.0);

    bench->layerMetrics(rep, spans);
    set("bench.trace_overhead_frac",
        median(tracedWalls) / median(walls) - 1.0);

    std::map<std::string, LayerTotals> all;
    for (const auto &[phase, layers] : sum)
        for (const auto &[name, t] : layers)
            all[name].add(t);
    for (const char *name : kSelfSpans) {
        const LayerTotals &t = all[name];
        rep.metrics[std::string("self.") + name + "_ms"] = {
            t.count ? t.self / double(t.count) * 1e3 : 0.0, "ms"};
    }

    if (!opt.spansPath.empty())
        writeSpans(opt.spansPath, spans);
    return rep;
}

} // namespace perfbench
