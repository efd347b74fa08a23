#include "sim/runner.hh"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.hh"

namespace ltp {

SweepSpec &
SweepSpec::add(const std::string &row, const std::string &series,
               const SimConfig &cfg, const std::string &kernel)
{
    jobs.push_back(SweepJob{row, series, cfg, {kernel}, kernel});
    return *this;
}

SweepSpec &
SweepSpec::addGroup(const std::string &row, const std::string &series,
                    const SimConfig &cfg,
                    const std::vector<std::string> &kernels,
                    const std::string &label)
{
    jobs.push_back(SweepJob{row, series, cfg, kernels, label});
    return *this;
}

SweepSpec
SweepSpec::cross(const std::string &name,
                 const std::vector<SimConfig> &configs,
                 const std::vector<std::string> &kernels,
                 const RunLengths &lengths)
{
    SweepSpec spec;
    spec.name = name;
    spec.lengths = lengths;
    for (const std::string &kernel : kernels)
        for (const SimConfig &cfg : configs)
            spec.add(kernel, cfg.name, cfg, kernel);
    return spec;
}

std::size_t
SweepSpec::simulationCount() const
{
    std::size_t n = 0;
    for (const SweepJob &job : jobs)
        n += job.kernels.size();
    return n;
}

ResultGrid::ResultGrid(ResultGrid &&other) noexcept
{
    std::lock_guard<std::mutex> lock(other.mutex_);
    grid_ = std::move(other.grid_);
    order_ = std::move(other.order_);
}

ResultGrid &
ResultGrid::operator=(ResultGrid &&other) noexcept
{
    if (this != &other) {
        std::scoped_lock lock(mutex_, other.mutex_);
        grid_ = std::move(other.grid_);
        order_ = std::move(other.order_);
    }
    return *this;
}

void
ResultGrid::put(const std::string &row, const std::string &series,
                const Metrics &m)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (grid_[row].insert_or_assign(series, m).second)
        order_.emplace_back(row, series);
}

const Metrics &
ResultGrid::at(const std::string &row, const std::string &series) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto r = grid_.find(row);
    if (r == grid_.end())
        throw std::out_of_range("ResultGrid: no results for row '" + row +
                                "'");
    auto c = r->second.find(series);
    if (c == r->second.end())
        throw std::out_of_range("ResultGrid: no results for series '" +
                                series + "' in row '" + row + "'");
    return c->second;
}

bool
ResultGrid::has(const std::string &row, const std::string &series) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto r = grid_.find(row);
    return r != grid_.end() && r->second.count(series) != 0;
}

std::vector<std::string>
ResultGrid::rows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(grid_.size());
    for (const auto &[row, series] : grid_)
        out.push_back(row);
    return out;
}

std::vector<std::string>
ResultGrid::series(const std::string &row) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    auto r = grid_.find(row);
    if (r == grid_.end())
        return out;
    out.reserve(r->second.size());
    for (const auto &[series, m] : r->second)
        out.push_back(series);
    return out;
}

std::vector<std::pair<std::string, std::string>>
ResultGrid::order() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return order_;
}

std::size_t
ResultGrid::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto &[row, series] : grid_)
        n += series.size();
    return n;
}

Runner::Runner(int threads, ExecBackendPtr backend)
    : threads_(threads > 0 ? threads : ThreadPool::defaultThreads()),
      backend_(backend ? std::move(backend) : LocalBackend::instance())
{
}

namespace {

/**
 * The unit of sharding: one (config, kernel) simulation.  Group jobs
 * expand to one shard per kernel and reduce with averageMetrics in
 * kernel order, so the average is bit-identical however the shards
 * were scheduled.
 */
struct Shard
{
    std::size_t job;
    std::size_t kernel;
};

CellResult
runShard(ExecBackend &backend, const SweepSpec &spec, const Shard &shard)
{
    const SweepJob &job = spec.jobs[shard.job];
    const std::string &workload = job.kernels[shard.kernel];
    // Key derivation (canonical config JSON + SHA-256) is skipped for
    // backends that don't address results by content, so the pure
    // local path pays nothing for the cache machinery.
    CellKey key;
    if (backend.wantsKey())
        key = cellKeyFor(job.cfg, workload, spec.lengths,
                         &spec.sampling);
    return backend.runCell(key, job.cfg, workload, spec.lengths,
                           spec.sampling);
}

/**
 * For each shard, the index of the first shard with the same config
 * (every registered field, name and seed included) and workload;
 * lengths and sampling are spec-wide.  A shard that maps to itself is
 * computed, the others copy it.
 */
std::vector<std::size_t>
firstOccurrences(const SweepSpec &spec, const std::vector<Shard> &shards)
{
    std::vector<std::size_t> first(shards.size());
    std::unordered_map<std::string, std::size_t> seen;
    seen.reserve(shards.size());
    std::string config_id;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const SweepJob &job = spec.jobs[shards[i].job];
        if (i == 0 || shards[i].job != shards[i - 1].job)
            config_id = configIdentity(job.cfg);
        // The identity is fixed-layout, so the name needs no separator.
        first[i] = seen.emplace(config_id + job.kernels[shards[i].kernel],
                                i)
                       .first->second;
    }
    return first;
}

} // namespace

SweepResult
Runner::run(const SweepSpec &spec, const ProgressFn &progress) const
{
    auto start = std::chrono::steady_clock::now();

    std::vector<Shard> shards;
    shards.reserve(spec.simulationCount());
    for (std::size_t j = 0; j < spec.jobs.size(); ++j)
        for (std::size_t k = 0; k < spec.jobs[j].kernels.size(); ++k)
            shards.push_back(Shard{j, k});

    std::vector<std::size_t> first = firstOccurrences(spec, shards);
    std::vector<std::size_t> copies(shards.size(), 0);
    std::size_t computed = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        copies[first[i]] += 1;
        computed += first[i] == i ? 1 : 0;
    }

    // Per-shard Metrics, indexed like `shards` so reduction order is
    // independent of completion order.
    std::vector<Metrics> results(shards.size());
    std::size_t cache_hits = 0;

    if (threads_ == 1) {
        // The serial path reports through the same ProgressFn as the
        // sharded one: once per cell, hits and repeats included.
        std::vector<char> hit(shards.size(), 0);
        for (std::size_t i = 0; i < shards.size(); ++i) {
            if (first[i] == i) {
                CellResult r = runShard(*backend_, spec, shards[i]);
                results[i] = std::move(r.metrics);
                hit[i] = r.cacheHit;
            }
            cache_hits += hit[first[i]] ? 1 : 0;
            if (progress)
                progress(Progress{i + 1, shards.size(), cache_hits,
                                  backend_->currentPhase()});
        }
    } else {
        // Workers bump `done`/`hits` as cells finish, once for every
        // shard a cell answers; the coordinating thread polls them
        // while waiting so the heartbeat reflects out-of-order
        // completions, not just the next future in line.
        std::atomic<std::size_t> done{0};
        std::atomic<std::size_t> hits{0};
        ThreadPool pool(threads_);
        std::vector<std::future<CellResult>> futures(shards.size());
        ExecBackend &backend = *backend_;
        for (std::size_t i = 0; i < shards.size(); ++i)
            if (first[i] == i)
                futures[i] = pool.submit([&backend, &spec, &done, &hits,
                                          shard = shards[i],
                                          n = copies[i]]() {
                    CellResult r = runShard(backend, spec, shard);
                    if (r.cacheHit)
                        hits.fetch_add(n, std::memory_order_relaxed);
                    done.fetch_add(n, std::memory_order_relaxed);
                    return r;
                });
        for (std::size_t i = 0; i < futures.size(); ++i) {
            if (!futures[i].valid())
                continue;
            if (progress) {
                while (futures[i].wait_for(
                           std::chrono::milliseconds(250)) !=
                       std::future_status::ready)
                    progress(Progress{
                        done.load(std::memory_order_relaxed),
                        shards.size(),
                        hits.load(std::memory_order_relaxed),
                        backend.currentPhase()});
            }
            results[i] = futures[i].get().metrics;
        }
        cache_hits = hits.load(std::memory_order_relaxed);
        if (progress)
            progress(Progress{shards.size(), shards.size(),
                              cache_hits, std::string()});
    }
    for (std::size_t i = 0; i < shards.size(); ++i)
        if (first[i] != i)
            results[i] = results[first[i]];

    SweepResult out;
    out.name = spec.name;
    out.threads = threads_;
    out.backend = backend_->name();
    out.simulations = shards.size();
    out.computed = computed;
    out.cacheHits = cache_hits;

    std::size_t next = 0;
    for (const SweepJob &job : spec.jobs) {
        if (job.kernels.size() == 1) {
            out.grid.put(job.row, job.series, results[next]);
            next += 1;
        } else {
            std::vector<Metrics> group(results.begin() + next,
                                       results.begin() + next +
                                           job.kernels.size());
            out.grid.put(job.row, job.series,
                         averageMetrics(group, job.label));
            next += job.kernels.size();
        }
    }

    out.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    return out;
}

} // namespace ltp
