#include "serve/worker_pool.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/file_io.hh"
#include "sim/cell_key.hh"

namespace ltp {

double
cellCost(const SimConfig &cfg, const RunLengths &lengths,
         const SamplePlan &sampling)
{
    double insts =
        sampling.enabled()
            ? double(sampling.samples) *
                  double(sampling.warmup + sampling.detail)
            : double(lengths.pipeWarm + lengths.detail);
    double ltp = cfg.core.ltp.mode != LtpMode::Off ? 2.0 : 1.0;
    return insts * ltp * double(std::max(1, cfg.core.numThreads));
}

WorkerPool::WorkerPool(const std::vector<std::string> &specs,
                       const ServeClientOptions &opts, bool quiet)
    : quiet_(quiet)
{
    if (specs.empty())
        throw std::runtime_error(
            "worker pool needs at least one --worker=host:port");
    for (const std::string &spec : specs) {
        std::string host = "127.0.0.1";
        int port = kDefaultServePort;
        auto w = std::make_unique<Worker>();
        try {
            parseHostPort(spec, &host, &port);
            w->address = host + ":" + std::to_string(port);
            w->client = std::make_unique<ServeBackend>(host, port, opts);
            // The worker's pool size is its concurrency: dispatching
            // more cells than that would just queue remotely, hidden
            // from the LPT dispatcher.
            JsonValue st = w->client->rpc("stats");
            auto it = st.object.find("threads");
            if (it != st.object.end() && it->second.isNumber())
                w->capacity = std::max(1, int(it->second.num));
            // A worker of another build would refuse every cell; say
            // so now, not at the first cell's error.
            auto model = st.object.find("model");
            std::string theirs =
                model != st.object.end() && model->second.isString()
                    ? model->second.str
                    : "<none>";
            if (theirs != modelFingerprint())
                throw std::runtime_error(
                    "runs model " + theirs + ", not this frontend's " +
                    modelFingerprint() +
                    " (build both from the same sources)");
        } catch (const std::exception &e) {
            throw std::runtime_error("worker " +
                                     (w->address.empty() ? spec
                                                         : w->address) +
                                     ": " + e.what());
        }
        totalCapacity_ += w->capacity;
        workers_.push_back(std::move(w));
    }
}

std::size_t
WorkerPool::upCountLocked() const
{
    std::size_t n = 0;
    for (const auto &w : workers_)
        n += w->up ? 1 : 0;
    return n;
}

void
WorkerPool::tryAdmitLocked()
{
    while (!waiters_.empty()) {
        Worker *best = nullptr;
        int best_free = 0;
        for (const auto &w : workers_) {
            if (!w->up)
                continue;
            int free = w->capacity - w->inflight;
            if (free > best_free) {
                best_free = free;
                best = w.get();
            }
        }
        if (!best)
            return; // no free slot anywhere (or no worker up)
        auto it = waiters_.begin(); // the longest queued cell
        it->second->assigned = best;
        best->inflight += 1;
        waiters_.erase(it);
        cv_.notify_all();
    }
}

WorkerPool::Worker *
WorkerPool::acquireSlot(double cost)
{
    std::unique_lock<std::mutex> lock(mutex_);
    Waiter me;
    QueueKey qk{cost, nextSeq_++};
    waiters_.emplace(qk, &me);
    tryAdmitLocked();
    cv_.wait(lock, [&]() {
        return me.assigned != nullptr || upCountLocked() == 0;
    });
    if (!me.assigned)
        waiters_.erase(qk); // every worker died while we queued
    return me.assigned;
}

void
WorkerPool::releaseSlot(Worker *w)
{
    std::lock_guard<std::mutex> lock(mutex_);
    w->inflight -= 1;
    tryAdmitLocked();
}

void
WorkerPool::markDown(Worker *w, const std::string &why)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!w->up)
        return;
    w->up = false;
    if (!quiet_)
        std::fprintf(stderr, "ltp serve: worker %s marked down (%s)\n",
                     w->address.c_str(), why.c_str());
    // Waiters re-check: with no worker up they fall back to local
    // compute instead of queueing forever.
    cv_.notify_all();
}

CellResult
WorkerPool::runCell(const CellKey &key, const SimConfig &cfg,
                    const std::string &workload,
                    const RunLengths &lengths, const SamplePlan &sampling)
{
    CellResult peer;
    if (peerLookup(key, &peer.metrics)) {
        peer.cacheHit = true;
        return peer;
    }
    double cost = cellCost(cfg, lengths, sampling);
    int attempt = 0;
    for (;;) {
        Worker *w = acquireSlot(cost);
        if (!w) {
            // Every worker is down: compute in-process so the sweep
            // still completes (bit-identically — the simulation is a
            // pure function of its inputs wherever it runs).
            return local_.runCell(key, cfg, workload, lengths, sampling);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            w->dispatched += 1;
            if (attempt > 0)
                w->retried += 1;
        }
        try {
            CellResult r =
                w->client->runCell(key, cfg, workload, lengths, sampling);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                w->completed += 1;
            }
            releaseSlot(w);
            return r;
        } catch (const std::exception &e) {
            std::string msg = e.what();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                w->failed += 1;
            }
            releaseSlot(w);
            // A `serve error:` reply means the worker answered: the
            // cell itself is bad (unknown workload, invalid config)
            // and would fail identically anywhere — propagate.
            if (msg.rfind("serve error:", 0) == 0)
                throw;
            // Transport failure: the worker is gone or hung.  Mark it
            // down and re-dispatch this cell to whoever is left.
            markDown(w, msg);
            attempt += 1;
        }
    }
}

bool
WorkerPool::peerLookup(const CellKey &key, Metrics *out)
{
    std::vector<Worker *> ups;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &w : workers_)
            if (w->up)
                ups.push_back(w.get());
    }
    for (Worker *w : ups) {
        try {
            if (w->client->lookup(key, out)) {
                std::lock_guard<std::mutex> lock(mutex_);
                w->peerHits += 1;
                return true;
            }
        } catch (const std::exception &e) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                w->failed += 1;
            }
            markDown(w, e.what());
        }
    }
    return false;
}

std::vector<WorkerStats>
WorkerPool::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<WorkerStats> out;
    out.reserve(workers_.size());
    for (const auto &w : workers_) {
        WorkerStats s;
        s.address = w->address;
        s.capacity = w->capacity;
        s.up = w->up;
        s.dispatched = w->dispatched;
        s.completed = w->completed;
        s.retried = w->retried;
        s.failed = w->failed;
        s.peerHits = w->peerHits;
        out.push_back(s);
    }
    return out;
}

std::vector<std::string>
loadWorkerSpecs(const std::string &path)
{
    std::string text = readFile(path);
    std::vector<std::string> out;
    for (std::size_t pos = 0; pos < text.size();) {
        std::size_t eol = std::min(text.find('\n', pos), text.size());
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        auto last = line.find_last_not_of(" \t\r");
        out.push_back(line.substr(first, last - first + 1));
    }
    if (out.empty())
        throw std::runtime_error("workers file '" + path +
                                 "' names no workers");
    return out;
}

} // namespace ltp
