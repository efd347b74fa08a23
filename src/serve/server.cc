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
#include "serve/worker_pool.hh"
#include "sim/cell_key.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "trace/suite.hh"
#include "trace/trace_workload.hh"

namespace ltp {

namespace {

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
    JsonValue frame = jsonObject();
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

/**
 * The stack `ltp run --cache-dir` builds, with the daemon's compute
 * backend at the bottom: the test seam if set, else the worker pool in
 * frontend mode, else in-process simulation.
 */
ExecBackendPtr
cellStack(const ServeOptions &o, const std::shared_ptr<ResultCache> &cache,
          const std::shared_ptr<WorkerPool> &workers)
{
    ExecBackendPtr compute = o.compute;
    if (!compute && workers)
        compute = workers;
    if (!compute)
        compute = std::make_shared<LocalBackend>();
    if (!cache)
        return compute;
    return std::make_shared<CachedBackend>(std::move(compute), cache);
}

/**
 * The daemon's one cell path, shared by `run` frames and the Runner
 * of a `scenario` frame: in-flight dedupe, drain accounting and the
 * stats counters over the cell stack.
 *
 * Identical cells in flight at the same moment (same key hex, possibly
 * from different clients) compute once: the first claims the key, the
 * rest wait on its shared_future.  The claim comes BEFORE the stack
 * looks at the cache, and CachedBackend stores before the claim is
 * released, so a late request either dedupes onto the running
 * computation or hits the cache — never re-runs.
 */
class DaemonBackend : public ExecBackend
{
  public:
    explicit DaemonBackend(ExecBackendPtr stack) : stack_(std::move(stack))
    {
    }

    std::string name() const override { return "daemon"; }

    bool wantsKey() const override { return true; }

    CellResult runCell(const CellKey &key, const SimConfig &cfg,
                       const std::string &workload,
                       const RunLengths &lengths,
                       const SamplePlan &sampling) override;

    /** Cells executing right now (computing, dispatched, or waiting
     *  on a dedupe), whatever frame submitted them. */
    std::size_t
    activeCells() const
    {
        std::lock_guard<std::mutex> lock(activeMutex_);
        return active_;
    }

    /** Wait up to @p deadlineMs for no cell to be active.
     *  @return the cells still active. */
    std::size_t
    waitIdle(int deadlineMs)
    {
        std::unique_lock<std::mutex> lock(activeMutex_);
        activeCv_.wait_for(lock, std::chrono::milliseconds(deadlineMs),
                           [this]() { return active_ == 0; });
        return active_;
    }

    /// @name Lifetime counters (the `stats` reply)
    /// @{
    std::atomic<std::uint64_t> computed{0};
    std::atomic<std::uint64_t> cacheHits{0}; ///< any cache, local or remote
    std::atomic<std::uint64_t> deduped{0};
    /// @}

  private:
    /** Scope guard around one executing cell (exception-safe drain
     *  accounting). */
    struct ActiveGuard
    {
        explicit ActiveGuard(DaemonBackend &d) : db(d)
        {
            std::lock_guard<std::mutex> lock(db.activeMutex_);
            db.active_ += 1;
        }
        ~ActiveGuard()
        {
            std::lock_guard<std::mutex> lock(db.activeMutex_);
            db.active_ -= 1;
            db.activeCv_.notify_all();
        }
        ActiveGuard(const ActiveGuard &) = delete;
        ActiveGuard &operator=(const ActiveGuard &) = delete;
        DaemonBackend &db;
    };

    ExecBackendPtr stack_;

    // Key hex -> the result of the request computing it.  An entry
    // exists only while its owner runs (on a pool thread or a Runner
    // thread), so a waiter always has an active computer to wait on —
    // no idle-deadlock for any pool size.
    std::mutex inflightMutex_;
    std::map<std::string, std::shared_future<CellResult>> inflight_;

    mutable std::mutex activeMutex_;
    std::condition_variable activeCv_;
    std::size_t active_ = 0;
};

CellResult
DaemonBackend::runCell(const CellKey &key, const SimConfig &cfg,
                       const std::string &workload,
                       const RunLengths &lengths,
                       const SamplePlan &sampling)
{
    ActiveGuard active(*this);
    std::promise<CellResult> mine;
    std::shared_future<CellResult> theirs;
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        auto it = inflight_.find(key.hex);
        if (it != inflight_.end())
            theirs = it->second;
        else
            inflight_.emplace(key.hex, mine.get_future().share());
    }
    if (theirs.valid()) {
        deduped.fetch_add(1, std::memory_order_relaxed);
        CellResult r = theirs.get(); // rethrows the owner's failure
        r.cacheHit = true;
        r.deduped = true;
        return r;
    }

    auto release = [this, &key]() {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        inflight_.erase(key.hex);
    };
    CellResult r;
    try {
        r = stack_->runCell(key, cfg, workload, lengths, sampling);
    } catch (...) {
        release();
        mine.set_exception(std::current_exception());
        throw;
    }
    (r.cacheHit ? cacheHits : computed)
        .fetch_add(1, std::memory_order_relaxed);
    release();
    mine.set_value(r);
    return r;
}

} // namespace

struct ServerImpl
{
    explicit ServerImpl(const ServeOptions &o)
        : opts(o), listener(o.port),
          cache(o.useCache
                    ? std::make_shared<ResultCache>(o.cacheDir)
                    : nullptr),
          workers(o.workers.empty()
                      ? nullptr
                      : std::make_shared<WorkerPool>(
                            o.workers, ServeClientOptions{}, o.quiet)),
          cells(std::make_shared<DaemonBackend>(
              cellStack(o, cache, workers))),
          pool(poolThreads(o, workers.get()))
    {
    }

    ServeOptions opts;
    Listener listener;
    std::shared_ptr<ResultCache> cache;   ///< null = compute-only
    std::shared_ptr<WorkerPool> workers;  ///< null = compute locally
    std::shared_ptr<DaemonBackend> cells; ///< every cell goes through here

    std::thread acceptThread;
    std::mutex connMutex;
    std::vector<std::shared_ptr<Conn>> conns;
    std::vector<std::thread> connThreads;

    std::atomic<std::uint64_t> requests{0};

    std::mutex stateMutex;
    std::condition_variable stateCv;
    bool stopping = false;
    bool stopped = false;

    // Declared last, so destroyed first: ~ThreadPool drains queued
    // cells while the state they touch (the cell path, connections) is
    // still alive.
    ThreadPool pool;

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Conn> conn);
    void handleFrame(const std::shared_ptr<Conn> &conn,
                     const std::string &line);
    void handleRun(const std::shared_ptr<Conn> &conn, std::uint64_t id,
                   const JsonValue &frame);
    void handleScenario(const std::shared_ptr<Conn> &conn,
                        std::uint64_t id, const JsonValue &frame);
    std::size_t drainActive(int deadlineMs);
    void requestStop();

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
            reply.object["model"] = jsonStr(modelFingerprint());
            conn->pipe.writeFrame(reply);
            return;
        }
        if (type == "stats") {
            JsonValue reply = objectFrame(id, "stats");
            reply.object["model"] = jsonStr(modelFingerprint());
            reply.object["requests"] = jsonU64(requests.load());
            reply.object["computed"] = jsonU64(cells->computed.load());
            reply.object["cacheHits"] = jsonU64(cells->cacheHits.load());
            reply.object["deduped"] = jsonU64(cells->deduped.load());
            reply.object["threads"] =
                jsonU64(std::uint64_t(pool.threadCount()));
            reply.object["activeCells"] =
                jsonU64(std::uint64_t(cells->activeCells()));
            if (workers) {
                std::uint64_t peerHits = 0;
                JsonValue arr = jsonArray();
                for (const WorkerStats &w : workers->stats()) {
                    peerHits += w.peerHits;
                    JsonValue ws = jsonObject();
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
                reply.object["peerHits"] = jsonU64(peerHits);
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

    // Clients normally send the key they derived and the model that
    // derived it; another build's key is refused, never answered or
    // stored under.  A raw client may omit the key: the server derives
    // it, content identity included, as a local CachedBackend does.
    CellKey key;
    auto keyIt = frame.object.find("key");
    auto modelIt = frame.object.find("model");
    std::string model =
        modelIt == frame.object.end() ? "(none)" : modelIt->second.str;
    if (keyIt == frame.object.end() || !keyIt->second.isString() ||
        keyIt->second.str.empty())
        key = cellKeyFor(cfg, workload, lengths, &sampling);
    else if (model != modelFingerprint())
        throw std::runtime_error(
            "model mismatch: the client's key is for model " + model +
            ", this daemon runs model " + modelFingerprint());
    else
        key = CellKey{keyIt->second.str, workloadIdentity(workload)};

    conn->total.fetch_add(1, std::memory_order_relaxed);

    pool.submit([this, conn, id, key = std::move(key), cfg = std::move(cfg),
                 workload = std::move(workload), lengths, sampling]() {
        JsonValue reply;
        bool hit = false;
        try {
            CellResult r =
                cells->runCell(key, cfg, workload, lengths, sampling);
            hit = r.cacheHit;
            reply = objectFrame(id, "result");
            reply.object["hit"] = jsonBool(r.cacheHit && !r.deduped);
            reply.object["deduped"] = jsonBool(r.deduped);
            reply.object["metrics"] = metricsTree(r.metrics);
        } catch (const std::exception &e) {
            reply = errorFrame(id, e.what());
        }

        std::uint64_t d =
            conn->done.fetch_add(1, std::memory_order_relaxed) + 1;
        std::uint64_t h =
            hit ? conn->hits.fetch_add(1, std::memory_order_relaxed) + 1
                : conn->hits.load(std::memory_order_relaxed);

        // Streamed progress: this connection's counters after each
        // completed cell (the newline framing keeps it one frame).
        // Sent in the same write as, and BEFORE, the result so a client
        // that has observed N results has, by TCP ordering, already
        // received N progress pushes — the count is deterministic, not
        // racy.
        JsonValue prog = jsonObject();
        prog.object["type"] = jsonStr("progress");
        prog.object["done"] = jsonU64(d);
        prog.object["total"] =
            jsonU64(conn->total.load(std::memory_order_relaxed));
        prog.object["hits"] = jsonU64(h);
        conn->pipe.writeFrames({&prog, &reply});
    });
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

    // Run through the stock Runner over the daemon's cell path — the
    // grid and its group reduction are bit-identical to a local sweep
    // of the same scenario, while each cell still dedupes, caches, and
    // fans out to workers.  The Runner spawns its own pool, so the
    // daemon's task pool is never deadlocked by this long-running
    // request (which deliberately occupies only the submitting
    // connection's reader thread).
    int threads = pool.threadCount();
    SweepSpec spec = scenario.compile(threads, cells);

    // Streamed progress keeps the client's silence timeout fed during
    // long runs (the Runner throttles to ~4 frames/s).
    ProgressFn progress = [&conn](const Progress &p) {
        JsonValue prog = jsonObject();
        prog.object["type"] = jsonStr("progress");
        prog.object["done"] = jsonU64(p.done);
        prog.object["total"] = jsonU64(p.total);
        prog.object["hits"] = jsonU64(p.hits);
        conn->pipe.writeFrame(prog);
    };
    SweepResult res = Runner(threads, cells).run(spec, progress);

    JsonValue reply = objectFrame(id, "sweep");
    reply.object["name"] = jsonStr(res.name);
    reply.object["threads"] = jsonU64(std::uint64_t(res.threads));
    reply.object["simulations"] = jsonU64(res.simulations);
    reply.object["computed"] = jsonU64(res.computed);
    reply.object["cacheHits"] = jsonU64(res.cacheHits);
    reply.object["wall_ms"] = jsonDouble(res.wallMs);
    JsonValue results = jsonArray();
    // Declared order, so the client renders rows as the file lists them.
    for (const auto &[row, series] : res.grid.order()) {
        JsonValue cell = jsonObject();
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
    std::size_t before = cells->activeCells();
    if (before == 0)
        return 0;
    note("draining %zu in-flight cell(s), deadline %d ms", before,
         deadlineMs);
    if (opts.onDrainStart)
        opts.onDrainStart();
    std::size_t left = cells->waitIdle(deadlineMs);
    return left < before ? before - left : 0;
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
