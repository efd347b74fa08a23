#include "serve/server.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <future>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hh"
#include "sample/sampler.hh"
#include "serve/worker_pool.hh"
#include "sim/cell_key.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"
#include "trace/trace_workload.hh"

namespace ltp {

namespace {

/** Outcome of one computed (or failed) cell, shared between the
 *  computing request and any deduped waiters. */
struct ComputedCell
{
    Metrics metrics;
    std::string error; ///< non-empty = the simulation threw
};

/** What one execCell() produced, and where the answer came from. */
struct ExecOutcome
{
    Metrics metrics;
    std::string error; ///< non-empty = the cell failed
    bool hit = false;  ///< local cache, peer cache, or worker cache
    bool deduped = false;
};

/** One client connection: the line pipe + its progress counters. */
struct Conn
{
    explicit Conn(int fd) : pipe(fd) {}

    LineConn pipe;
    std::atomic<std::uint64_t> total{0}; ///< run requests received
    std::atomic<std::uint64_t> done{0};  ///< results sent
    std::atomic<std::uint64_t> hits{0};  ///< of those, hit || deduped
};

JsonValue
objectFrame(std::uint64_t id, const std::string &type)
{
    JsonValue frame;
    frame.kind = JsonValue::Kind::Object;
    frame.object["id"] = jsonU64(id);
    frame.object["type"] = jsonStr(type);
    return frame;
}

JsonValue
errorFrame(std::uint64_t id, const std::string &message)
{
    JsonValue frame = objectFrame(id, "error");
    frame.object["message"] = jsonStr(message);
    return frame;
}

/** Exact u64 out of a number field (frames carry ids and lengths as
 *  integers; reject anything else loudly). */
std::uint64_t
frameU64(const JsonValue &obj, const std::string &key)
{
    auto it = obj.object.find(key);
    if (it == obj.object.end() || !it->second.isNumber())
        throw std::runtime_error("frame missing numeric '" + key + "'");
    std::uint64_t out = 0;
    if (!u64FromLexeme(it->second.str, &out))
        throw std::runtime_error("frame field '" + key +
                                 "' is not an exact u64: " +
                                 it->second.str);
    return out;
}

std::string
frameStr(const JsonValue &obj, const std::string &key)
{
    auto it = obj.object.find(key);
    if (it == obj.object.end() || !it->second.isString())
        throw std::runtime_error("frame missing string '" + key + "'");
    return it->second.str;
}

/**
 * Reject unresolvable workload names before they reach the pool:
 * makeKernel() treats an unknown name as a user error and fatal()s
 * (exits), which is right for the CLI but must not let one bad
 * request take down the daemon and every other client with it.
 */
void
validateWorkload(const std::string &name)
{
    if (isSmtName(name)) {
        for (const std::string &member : smtMembers(name))
            validateWorkload(member);
        return;
    }
    if (isTraceName(name)) {
        // Throws std::runtime_error on a missing/corrupt trace file.
        loadTraceCached(tracePath(name));
        return;
    }
    for (const SuiteEntry &e : kernelSuite())
        if (e.name == name)
            return;
    throw std::runtime_error("unknown workload '" + name + "'");
}

/**
 * Pool size for the daemon.  In worker mode the pool's tasks mostly
 * block on remote replies, so it is oversized past the local core
 * count — queued cells must reach the WorkerPool's cost-ordered queue
 * (where LPT picks the longest first) rather than sit invisibly in
 * the FIFO task queue behind it.
 */
int
poolThreads(const ServeOptions &o, const WorkerPool *workers)
{
    if (o.threads > 0 || !workers)
        return o.threads;
    return std::max(ThreadPool::defaultThreads(),
                    2 * workers->totalCapacity());
}

} // namespace

struct ServerImpl
{
    explicit ServerImpl(const ServeOptions &o)
        : opts(o), listener(o.port),
          cache(o.useCache
                    ? std::make_unique<ResultCache>(o.cacheDir)
                    : nullptr),
          workers(o.workers.empty()
                      ? nullptr
                      : std::make_unique<WorkerPool>(
                            o.workers, ServeClientOptions{}, o.quiet)),
          pool(poolThreads(o, workers.get()))
    {
    }

    ServeOptions opts;
    Listener listener;
    std::unique_ptr<ResultCache> cache;
    std::unique_ptr<WorkerPool> workers; ///< null = compute locally

    std::thread acceptThread;
    std::mutex connMutex;
    std::vector<std::shared_ptr<Conn>> conns;
    std::vector<std::thread> connThreads;

    // In-flight dedupe: key hex -> the future of the request computing
    // it.  An entry exists only while its computing task is running on
    // a pool thread, so a waiter (itself a pool task) always has an
    // active computer to wait on — no idle-deadlock for any pool size.
    std::mutex inflightMutex;
    std::map<std::string, std::shared_future<std::shared_ptr<ComputedCell>>>
        inflight;

    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> computed{0};
    std::atomic<std::uint64_t> cacheHits{0};
    std::atomic<std::uint64_t> deduped{0};
    std::atomic<std::uint64_t> peerHits{0};

    // Cells currently executing (local compute, worker dispatch, or
    // dedupe-wait), whatever path submitted them — what a graceful
    // shutdown drains.
    std::mutex activeMutex;
    std::condition_variable activeCv;
    std::size_t activeCells = 0;

    std::mutex stateMutex;
    std::condition_variable stateCv;
    bool stopping = false;
    bool stopped = false;

    // Declared last, so destroyed first: ~ThreadPool drains queued
    // cells while the state they touch (in-flight map, counters, drain
    // accounting) is still alive.
    ThreadPool pool;

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Conn> conn);
    void handleFrame(const std::shared_ptr<Conn> &conn,
                     const std::string &line);
    void handleRun(const std::shared_ptr<Conn> &conn, std::uint64_t id,
                   const JsonValue &frame);
    void handleScenario(const std::shared_ptr<Conn> &conn,
                        std::uint64_t id, const JsonValue &frame);
    ExecOutcome execCell(const std::string &key, const SimConfig &cfg,
                         const std::string &workload,
                         const RunLengths &lengths,
                         const SamplePlan &sampling);
    std::size_t drainActive(int deadlineMs);
    void requestStop();

    void
    beginCell()
    {
        std::lock_guard<std::mutex> lock(activeMutex);
        activeCells += 1;
    }

    void
    endCell()
    {
        std::lock_guard<std::mutex> lock(activeMutex);
        activeCells -= 1;
        activeCv.notify_all();
    }

    void
    note(const char *fmt, ...) const
    {
        if (opts.quiet)
            return;
        va_list ap;
        va_start(ap, fmt);
        std::fprintf(stderr, "ltp serve: ");
        std::vfprintf(stderr, fmt, ap);
        std::fprintf(stderr, "\n");
        va_end(ap);
    }
};

namespace {

/** Scope guard around one executing cell (exception-safe drain
 *  accounting). */
struct ActiveGuard
{
    explicit ActiveGuard(ServerImpl &s) : srv(s) { srv.beginCell(); }
    ~ActiveGuard() { srv.endCell(); }
    ActiveGuard(const ActiveGuard &) = delete;
    ActiveGuard &operator=(const ActiveGuard &) = delete;
    ServerImpl &srv;
};

/**
 * The daemon's own exec path as an ExecBackend, so a submitted
 * scenario runs through the stock Runner (identical sharding and
 * group reduction to a local sweep) while every cell still gets the
 * full dedupe → cache → peer-lookup → worker-dispatch treatment.
 */
class DaemonBackend : public ExecBackend
{
  public:
    explicit DaemonBackend(ServerImpl &srv) : srv_(srv) {}

    std::string name() const override { return "daemon"; }

    bool wantsKey() const override { return true; }

    CellResult
    runCell(const CellKey &key, const SimConfig &cfg,
            const std::string &workload, const RunLengths &lengths,
            const SamplePlan &sampling) override
    {
        std::string hex =
            key.hex.empty()
                ? cellKeyFor(cfg, workload, lengths, &sampling).hex
                : key.hex;
        ExecOutcome out =
            srv_.execCell(hex, cfg, workload, lengths, sampling);
        if (!out.error.empty())
            throw std::runtime_error(out.error);
        CellResult r;
        r.metrics = out.metrics;
        r.cacheHit = out.hit || out.deduped;
        return r;
    }

  private:
    ServerImpl &srv_;
};

} // namespace

void
ServerImpl::acceptLoop()
{
    for (;;) {
        int fd = listener.accept();
        if (fd < 0)
            return; // listener shut down: stopping
        auto conn = std::make_shared<Conn>(fd);
        std::lock_guard<std::mutex> lock(connMutex);
        conns.push_back(conn);
        connThreads.emplace_back(
            [this, conn]() { connectionLoop(conn); });
    }
}

void
ServerImpl::connectionLoop(std::shared_ptr<Conn> conn)
{
    std::string line;
    while (conn->pipe.readLine(line))
        handleFrame(conn, line);
}

void
ServerImpl::handleFrame(const std::shared_ptr<Conn> &conn,
                        const std::string &line)
{
    std::uint64_t id = 0;
    try {
        JsonValue frame = parseJson(line);
        if (!frame.isObject())
            throw std::runtime_error("frame is not an object");
        id = frameU64(frame, "id");
        std::string type = frameStr(frame, "type");
        requests.fetch_add(1, std::memory_order_relaxed);

        if (type == "run") {
            handleRun(conn, id, frame);
            return;
        }
        if (type == "scenario") {
            // Runs to completion on this connection's reader thread:
            // a long scenario blocks only its submitter, never the
            // pool or other clients.
            handleScenario(conn, id, frame);
            return;
        }
        if (type == "lookup") {
            std::string key = frameStr(frame, "key");
            JsonValue reply = objectFrame(id, "lookup");
            Metrics m;
            bool found =
                cache && cache->lookup(CellKey{key, ""}, &m);
            reply.object["found"] = jsonBool(found);
            if (found)
                reply.object["metrics"] = metricsTree(m);
            conn->pipe.writeFrame(reply);
            return;
        }
        if (type == "ping") {
            JsonValue reply = objectFrame(id, "pong");
            reply.object["version"] =
                jsonU64(std::uint64_t(kServeProtocolVersion));
            conn->pipe.writeFrame(reply);
            return;
        }
        if (type == "stats") {
            JsonValue reply = objectFrame(id, "stats");
            reply.object["requests"] = jsonU64(requests.load());
            reply.object["computed"] = jsonU64(computed.load());
            reply.object["cacheHits"] = jsonU64(cacheHits.load());
            reply.object["deduped"] = jsonU64(deduped.load());
            reply.object["threads"] =
                jsonU64(std::uint64_t(pool.threadCount()));
            {
                std::lock_guard<std::mutex> alock(activeMutex);
                reply.object["activeCells"] =
                    jsonU64(std::uint64_t(activeCells));
            }
            if (workers) {
                reply.object["peerHits"] = jsonU64(peerHits.load());
                JsonValue arr;
                arr.kind = JsonValue::Kind::Array;
                for (const WorkerStats &w : workers->stats()) {
                    JsonValue ws;
                    ws.kind = JsonValue::Kind::Object;
                    ws.object["worker"] = jsonStr(w.address);
                    ws.object["capacity"] =
                        jsonU64(std::uint64_t(w.capacity));
                    ws.object["up"] = jsonBool(w.up);
                    ws.object["dispatched"] = jsonU64(w.dispatched);
                    ws.object["completed"] = jsonU64(w.completed);
                    ws.object["retried"] = jsonU64(w.retried);
                    ws.object["failed"] = jsonU64(w.failed);
                    ws.object["peerHits"] = jsonU64(w.peerHits);
                    arr.array.push_back(std::move(ws));
                }
                reply.object["workers"] = std::move(arr);
            }
            if (cache) {
                CacheStats cs = cache->usage();
                reply.object["cacheEntries"] = jsonU64(cs.entries);
                reply.object["cacheBytes"] = jsonU64(cs.bytes);
                reply.object["cacheDir"] = jsonStr(cache->dir());
            }
            conn->pipe.writeFrame(reply);
            return;
        }
        if (type == "shutdown") {
            // Drain before acknowledging: the reply's `drained` count
            // tells the operator how many in-flight cells finished
            // (instead of dying) thanks to the graceful window.
            std::size_t drained = drainActive(opts.drainTimeoutMs);
            JsonValue reply = objectFrame(id, "ok");
            reply.object["drained"] =
                jsonU64(std::uint64_t(drained));
            conn->pipe.writeFrame(reply);
            note("shutdown requested (%zu in-flight cell(s) drained)",
                 drained);
            requestStop();
            return;
        }
        throw std::runtime_error("unknown request type '" + type + "'");
    } catch (const std::exception &e) {
        conn->pipe.writeFrame(errorFrame(id, e.what()));
    }
}

void
ServerImpl::handleRun(const std::shared_ptr<Conn> &conn, std::uint64_t id,
                      const JsonValue &frame)
{
    // Parse on the reader thread so malformed requests fail fast (and
    // the pool only ever sees well-formed work).
    auto cfgIt = frame.object.find("config");
    if (cfgIt == frame.object.end() || !cfgIt->second.isObject())
        throw std::runtime_error("run frame missing 'config' object");
    SimConfig cfg = configFromJson(cfgIt->second);

    std::string workload = frameStr(frame, "workload");
    validateWorkload(workload);

    auto lenIt = frame.object.find("lengths");
    if (lenIt == frame.object.end() || !lenIt->second.isObject())
        throw std::runtime_error("run frame missing 'lengths' object");
    RunLengths lengths;
    lengths.funcWarm = frameU64(lenIt->second, "funcWarm");
    lengths.pipeWarm = frameU64(lenIt->second, "pipeWarm");
    lengths.detail = frameU64(lenIt->second, "detail");

    // Optional interval-sampling plan (protocol v2); absent = full
    // detail, exactly as v1 clients expect.
    SamplePlan sampling;
    auto spIt = frame.object.find("sampling");
    if (spIt != frame.object.end()) {
        if (!spIt->second.isObject())
            throw std::runtime_error(
                "run frame 'sampling' is not an object");
        sampling.fastForward = frameU64(spIt->second, "fastForward");
        sampling.warmup = frameU64(spIt->second, "warmup");
        sampling.detail = frameU64(spIt->second, "detail");
        sampling.samples = int(frameU64(spIt->second, "samples"));
    }

    // Clients normally send the key they derived; a raw client may
    // omit it, in which case the server derives the identical one.
    std::string key;
    auto keyIt = frame.object.find("key");
    if (keyIt != frame.object.end() && keyIt->second.isString())
        key = keyIt->second.str;
    if (key.empty())
        key = cellKeyFor(cfg, workload, lengths, &sampling).hex;

    conn->total.fetch_add(1, std::memory_order_relaxed);

    pool.submit([this, conn, id, key, cfg = std::move(cfg),
                 workload = std::move(workload), lengths, sampling]() {
        ExecOutcome out =
            execCell(key, cfg, workload, lengths, sampling);

        std::uint64_t d =
            conn->done.fetch_add(1, std::memory_order_relaxed) + 1;
        std::uint64_t h =
            out.hit || out.deduped
                ? conn->hits.fetch_add(1, std::memory_order_relaxed) + 1
                : conn->hits.load(std::memory_order_relaxed);

        // Streamed progress: this connection's counters after each
        // completed cell (the newline framing keeps it one frame).
        // Sent in the same write as, and BEFORE, the result so a client
        // that has observed N results has, by TCP ordering, already
        // received N progress pushes — the count is deterministic, not
        // racy.
        JsonValue prog;
        prog.kind = JsonValue::Kind::Object;
        prog.object["type"] = jsonStr("progress");
        prog.object["done"] = jsonU64(d);
        prog.object["total"] =
            jsonU64(conn->total.load(std::memory_order_relaxed));
        prog.object["hits"] = jsonU64(h);

        JsonValue reply;
        if (!out.error.empty()) {
            reply = errorFrame(id, out.error);
        } else {
            reply = objectFrame(id, "result");
            reply.object["hit"] = jsonBool(out.hit);
            reply.object["deduped"] = jsonBool(out.deduped);
            reply.object["metrics"] = metricsTree(out.metrics);
        }
        conn->pipe.writeFrames({&prog, &reply});
    });
}

ExecOutcome
ServerImpl::execCell(const std::string &key, const SimConfig &cfg,
                     const std::string &workload,
                     const RunLengths &lengths,
                     const SamplePlan &sampling)
{
    ActiveGuard active(*this);
    ExecOutcome out;
    std::shared_ptr<ComputedCell> cell;
    CellKey cellKey{key, workload};

    // Claim the key BEFORE looking at the cache: whoever wins the
    // in-flight race is the only request that may touch the cache,
    // the workers, or the simulator for this key, so identical
    // concurrent cells compute exactly once (the cache store happens
    // before the claim is released, so a late request either dedupes
    // onto the running computation or hits the cache — never re-runs).
    std::promise<std::shared_ptr<ComputedCell>> mine;
    std::shared_future<std::shared_ptr<ComputedCell>> theirs;
    {
        std::lock_guard<std::mutex> lock(inflightMutex);
        auto it = inflight.find(key);
        if (it != inflight.end())
            theirs = it->second;
        else
            inflight.emplace(key, mine.get_future().share());
    }
    if (theirs.valid()) {
        // An entry exists only while its owner runs on another
        // thread, so this wait always has an active computer to wait
        // on — no idle-deadlock for any pool size.
        out.deduped = true;
        deduped.fetch_add(1, std::memory_order_relaxed);
        cell = theirs.get();
    } else {
        cell = std::make_shared<ComputedCell>();
        Metrics cached;
        if (cache && cache->lookup(cellKey, &cached)) {
            out.hit = true;
            cell->metrics = cached;
            cacheHits.fetch_add(1, std::memory_order_relaxed);
        } else if (workers &&
                   workers->peerLookup(cellKey, &cached)) {
            // A peer worker already has this cell: answer from its
            // cache and replicate into the local one, so the next
            // probe for a hot cell never leaves this host.
            out.hit = true;
            cell->metrics = cached;
            cacheHits.fetch_add(1, std::memory_order_relaxed);
            peerHits.fetch_add(1, std::memory_order_relaxed);
            if (cache)
                cache->store(cellKey, cfg, lengths, cell->metrics);
        } else {
            try {
                if (opts.onCellStart)
                    opts.onCellStart();
                bool remote_hit = false;
                cell->metrics =
                    workers ? workers->runCell(cellKey, cfg, workload,
                                               lengths, sampling,
                                               &remote_hit)
                    : sampling.enabled()
                        ? Sampler::runOnce(cfg, workload, sampling)
                        : Simulator::runOnce(cfg, workload, lengths);
                if (remote_hit) {
                    out.hit = true;
                    cacheHits.fetch_add(1, std::memory_order_relaxed);
                } else {
                    computed.fetch_add(1, std::memory_order_relaxed);
                }
                // Store-back: the computing worker cached its copy on
                // its own run path; this store replicates the result
                // to the frontend.
                if (cache)
                    cache->store(cellKey, cfg, lengths, cell->metrics);
            } catch (const std::exception &e) {
                cell->error = e.what();
            }
        }
        {
            std::lock_guard<std::mutex> lock(inflightMutex);
            inflight.erase(key);
        }
        mine.set_value(cell);
    }

    out.metrics = cell->metrics;
    out.error = cell->error;
    return out;
}

void
ServerImpl::handleScenario(const std::shared_ptr<Conn> &conn,
                           std::uint64_t id, const JsonValue &frame)
{
    auto scIt = frame.object.find("scenario");
    if (scIt == frame.object.end() || !scIt->second.isObject())
        throw std::runtime_error(
            "scenario frame missing 'scenario' object");
    // Compile server-side: relative trace paths resolve against the
    // daemon's --trace-dir, so the client ships scenario text, never
    // trace files.
    Scenario scenario =
        scenarioFromJson(writeJsonCompact(scIt->second), opts.traceDir);

    // Run through the stock Runner over the daemon's own exec path —
    // the grid and its group reduction are bit-identical to a local
    // sweep of the same scenario, while each cell still dedupes,
    // caches, and fans out to workers.  The Runner spawns its own
    // pool, so the daemon's task pool is never deadlocked by this
    // long-running request (which deliberately occupies only the
    // submitting connection's reader thread).
    auto backend = std::make_shared<DaemonBackend>(*this);
    int threads = pool.threadCount();
    SweepSpec spec = scenario.compile(threads, backend);

    // Streamed progress keeps the client's silence timeout fed during
    // long runs (the Runner throttles to ~4 frames/s).
    ProgressFn progress = [&conn](const Progress &p) {
        JsonValue prog;
        prog.kind = JsonValue::Kind::Object;
        prog.object["type"] = jsonStr("progress");
        prog.object["done"] = jsonU64(p.done);
        prog.object["total"] = jsonU64(p.total);
        prog.object["hits"] = jsonU64(p.hits);
        conn->pipe.writeFrame(prog);
    };
    SweepResult res = Runner(threads, backend).run(spec, progress);

    JsonValue reply = objectFrame(id, "sweep");
    reply.object["name"] = jsonStr(res.name);
    reply.object["threads"] = jsonU64(std::uint64_t(res.threads));
    reply.object["simulations"] = jsonU64(res.simulations);
    reply.object["cacheHits"] = jsonU64(res.cacheHits);
    reply.object["wall_ms"] = jsonDouble(res.wallMs);
    JsonValue results;
    results.kind = JsonValue::Kind::Array;
    // Declared order, so the client renders rows as the file lists them.
    for (const auto &[row, series] : res.grid.order()) {
        JsonValue cell;
        cell.kind = JsonValue::Kind::Object;
        cell.object["row"] = jsonStr(row);
        cell.object["series"] = jsonStr(series);
        cell.object["metrics"] = metricsTree(res.grid.at(row, series));
        results.array.push_back(std::move(cell));
    }
    reply.object["results"] = std::move(results);
    conn->pipe.writeFrame(reply);
}

std::size_t
ServerImpl::drainActive(int deadlineMs)
{
    std::unique_lock<std::mutex> lock(activeMutex);
    std::size_t before = activeCells;
    if (before == 0)
        return 0;
    note("draining %zu in-flight cell(s), deadline %d ms", before,
         deadlineMs);
    if (opts.onDrainStart) {
        lock.unlock();
        opts.onDrainStart();
        lock.lock();
    }
    activeCv.wait_for(lock, std::chrono::milliseconds(deadlineMs),
                      [this]() { return activeCells == 0; });
    return activeCells < before ? before - activeCells : 0;
}

void
ServerImpl::requestStop()
{
    std::lock_guard<std::mutex> lock(stateMutex);
    stopping = true;
    stateCv.notify_all();
}

Server::Server(const ServeOptions &opts)
    : impl_(std::make_unique<ServerImpl>(opts))
{
}

Server::~Server()
{
    stop();
}

int
Server::port() const
{
    return impl_->listener.port();
}

void
Server::start()
{
    impl_->note("listening on port %d (%d worker threads, cache %s)",
                port(), impl_->pool.threadCount(),
                impl_->cache ? impl_->cache->dir().c_str()
                             : "disabled");
    if (impl_->workers)
        impl_->note("frontend mode: %zu remote worker(s), "
                    "%d total remote slots",
                    impl_->workers->workerCount(),
                    impl_->workers->totalCapacity());
    impl_->acceptThread =
        std::thread([this]() { impl_->acceptLoop(); });
}

void
Server::waitForShutdown()
{
    std::unique_lock<std::mutex> lock(impl_->stateMutex);
    impl_->stateCv.wait(lock, [this]() { return impl_->stopping; });
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(impl_->stateMutex);
        if (impl_->stopped) {
            return;
        }
        impl_->stopped = true;
        impl_->stopping = true;
        impl_->stateCv.notify_all();
    }

    // Unblock and join the accept loop first so no new connections
    // arrive while the existing ones drain.
    impl_->listener.shutdown();
    if (impl_->acceptThread.joinable())
        impl_->acceptThread.join();
    impl_->listener.close();

    // Unblock every connection reader stuck in recv(); in-flight pool
    // tasks still hold shared_ptrs to their Conn, so late responses
    // hit a closed socket harmlessly instead of a dangling pointer.
    std::lock_guard<std::mutex> lock(impl_->connMutex);
    for (const auto &conn : impl_->conns)
        conn->pipe.shutdown();
    for (std::thread &t : impl_->connThreads)
        if (t.joinable())
            t.join();
    // ~ThreadPool drains the queue when impl_ is destroyed (it is the
    // last member, so it goes first).
}

} // namespace ltp
