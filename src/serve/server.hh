/**
 * @file
 * The `ltp serve` daemon: a shared simulation service answering sweep
 * cells over TCP so many clients (or repeated CI runs) share one
 * result cache and one thread pool.
 *
 * Protocol (one compact-JSON frame per line, see serve/wire.hh):
 *
 *   → {"id":N,"type":"run","key":"<64-hex>","model":"<64-hex>",
 *      "workload":"<name>","config":{...},
 *      "lengths":{"funcWarm":F,"pipeWarm":P,"detail":D},
 *      "sampling":{"fastForward":F,"warmup":W,"detail":D,"samples":N}}
 *      (the optional "sampling" object selects interval sampling; a
 *      "key" needs the "model" fingerprint that derived it, else the
 *      reply is an error naming both; without one the daemon keys)
 *   ← {"id":N,"type":"result","hit":B,"deduped":B,"metrics":{...}}
 *   ← {"type":"progress","done":D,"total":T,"hits":H}   (per connection)
 *   → {"id":N,"type":"scenario","scenario":{...}}       (whole scenario)
 *   ← {"id":N,"type":"sweep","name":S,"threads":T,"simulations":N,
 *      "computed":C,"cacheHits":H,"wall_ms":W,"results":[{"row":R,"series":S,
 *      "metrics":{...}},...]}
 *   → {"id":N,"type":"lookup","key":"<64-hex>"}         (cache probe)
 *   ← {"id":N,"type":"lookup","found":B,"metrics":{...}} (if found)
 *   → {"id":N,"type":"ping"}
 *   ← {"id":N,"type":"pong","version":V,"model":"<64-hex>"}
 *   → {"id":N,"type":"stats"}      ← {"id":N,"type":"stats","model":...}
 *   → {"id":N,"type":"shutdown"}   ← {"id":N,"type":"ok","drained":D}
 *                                     (after draining, then exits)
 *   ← {"id":N,"type":"error","message":"..."}            (any failure)
 *
 * Distributed mode: started with --worker=host:port (repeatable) the
 * daemon becomes a frontend that schedules cells onto remote worker
 * daemons through a WorkerPool (serve/worker_pool.hh) — LPT dispatch,
 * re-dispatch on worker failure, cache peer lookup via the `lookup`
 * frame, and in-process fallback when every worker is down.  A worker
 * of another build is refused when the frontend connects to it (the
 * error names both model fingerprints).  The
 * `scenario` frame compiles and runs a whole scenario server-side
 * (trace paths resolved against --trace-dir), so a client sends one
 * frame per study instead of one per cell.
 *
 * Requests are pipelined: each connection has one reader thread that
 * parses frames and submits `run` cells to the shared pool, so
 * responses can arrive out of submission order — clients match them by
 * id.
 *
 * Every cell — from a `run` frame or a `scenario` frame's Runner —
 * takes one path: in-flight dedupe over the ExecBackend stack that
 * `ltp run --cache-dir` uses.  Identical cells in flight at the same
 * moment (same CellKey hex, possibly from different clients) are
 * deduped: one computes, the rest wait on its result and reply with
 * deduped=true.  Below the dedupe, a CachedBackend (unless --no-cache)
 * answers from — and persists to — the same on-disk ResultCache, with
 * the same entry bytes, as a local sweep; a warm serve daemon and a
 * warm local cache are interchangeable.  Below the cache sits one
 * compute backend: the WorkerPool in frontend mode, a LocalBackend
 * otherwise.
 */

#ifndef LTP_SERVE_SERVER_HH
#define LTP_SERVE_SERVER_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/wire.hh"
#include "sim/exec_backend.hh"

namespace ltp {

class ResultCache;
class ThreadPool;
struct ServerImpl;

/** Bump when the frame schema changes incompatibly.  v2 added the
 *  optional `sampling` object to `run` frames (interval sampling).
 *  v3 added `scenario` and `lookup` requests, the shutdown reply's
 *  `drained` and the stats' `workers`.  v4: a keyed `run` frame
 *  carries `model`, and `pong` and `stats` report it. */
inline constexpr int kServeProtocolVersion = 4;

/** `ltp serve` configuration. */
struct ServeOptions
{
    int port = kDefaultServePort; ///< 0 = ephemeral (tests read port())
    int threads = 0;         ///< pool size; <= 0 = hardware concurrency
    std::string cacheDir;    ///< "" = ResultCache::defaultDir()
    bool useCache = true;    ///< false = compute-only (still dedupes)
    bool quiet = false;      ///< suppress per-connection stderr notes
    /** Remote worker daemons ("host:port"); non-empty turns this
     *  daemon into a frontend that dispatches cells to them. */
    std::vector<std::string> workers;
    /** Base directory for resolving relative trace paths in submitted
     *  scenarios ("" = the daemon's working directory). */
    std::string traceDir;
    /** Max wait for in-flight cells to finish on shutdown. */
    int drainTimeoutMs = 10000;

    /// @name Test seams (unset in normal use)
    /// @{
    /** Replaces the compute backend below the cache (the WorkerPool
     *  or a LocalBackend).  A test passes a fake that blocks, then
     *  delegates: the cell already counts as in flight, so it can be
     *  held there until the test chooses to release it. */
    ExecBackendPtr compute;
    /** Runs on the shutdown path once the drain has counted the cells
     *  in flight, before it waits for them. */
    std::function<void()> onDrainStart;
    /// @}
};

/** The daemon: accept loop + per-connection readers + shared pool. */
class Server
{
  public:
    /** Binds and listens immediately (so port() is valid), but serves
     *  nothing until start().  @throws std::runtime_error on bind
     *  failure. */
    explicit Server(const ServeOptions &opts);

    /** Stops and joins everything still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** The bound port (resolves an ephemeral request). */
    int port() const;

    /** Spawn the accept loop; returns immediately. */
    void start();

    /** Block until a client sends `shutdown` (or stop() is called). */
    void waitForShutdown();

    /** Initiate shutdown: close the listener, unblock readers, drain
     *  the pool, join all threads.  Idempotent. */
    void stop();

  private:
    std::unique_ptr<ServerImpl> impl_;
};

} // namespace ltp

#endif // LTP_SERVE_SERVER_HH
