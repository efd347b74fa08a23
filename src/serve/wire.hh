/**
 * @file
 * Transport for the `ltp serve` protocol: newline-delimited compact
 * JSON frames over TCP.
 *
 * One frame per line, rendered by writeJsonCompact (whose string
 * escaping guarantees no raw newline can appear inside a frame), so
 * the stream is trivially resynchronizable and debuggable with nc(1).
 * This header wraps the POSIX socket calls in three small pieces:
 *
 *  - Listener    — bind/listen on a port (0 = ephemeral, for tests),
 *                  accept() yielding connected fds;
 *  - connectTcp  — client-side connect to host:port;
 *  - LineConn    — a buffered, bidirectional line pipe over one fd
 *                  with a write mutex so concurrent responders (pool
 *                  workers finishing out of order) interleave whole
 *                  frames, never bytes.
 *
 * The frame schema itself lives in server.cc/client.cc; see the
 * "serve wire protocol" section of README.md.
 */

#ifndef LTP_SERVE_WIRE_HH
#define LTP_SERVE_WIRE_HH

#include <atomic>
#include <initializer_list>
#include <mutex>
#include <string>

#include "common/json.hh"

namespace ltp {

/** Default `ltp serve` port (an unassigned registry hole). */
inline constexpr int kDefaultServePort = 7461;

/** Connect to @p host:@p port.  @p timeoutMs > 0 bounds the connect
 *  itself (non-blocking connect + poll); 0 keeps the OS default.
 *  @return the connected fd.
 *  @throws std::runtime_error naming host/port on failure/timeout. */
int connectTcp(const std::string &host, int port, int timeoutMs = 0);

/** Listening TCP socket (loopback-reachable; all interfaces). */
class Listener
{
  public:
    /** Bind + listen.  @p port 0 picks an ephemeral port (tests).
     *  @throws std::runtime_error on bind/listen failure. */
    explicit Listener(int port);
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** The actually-bound port (resolves port 0). */
    int port() const { return port_; }

    /** Block for one connection.  @return the connected fd, or -1
     *  once shutdown() has been called (the accept loop's exit
     *  signal). */
    int accept();

    /** Stop accepting: wakes a thread blocked in accept(), and every
     *  later accept() returns -1.  The socket stays open (so its fd
     *  number cannot be reused under a late accept()) until close(). */
    void shutdown();

    /** shutdown(), then release the socket.  Call once no thread can
     *  still be inside accept() (join the accept loop first). */
    void close();

  private:
    std::atomic<int> fd_{-1};
    int stopped_fd_ = -1; ///< taken by shutdown(), released by close()
    int port_ = 0;
};

/**
 * One connected socket carrying newline-delimited frames.  readLine is
 * single-consumer (one reader thread per connection); writeFrame(s)
 * is safe from any number of threads.
 */
class LineConn
{
  public:
    /** Takes ownership of @p fd. */
    explicit LineConn(int fd) : fd_(fd) {}
    ~LineConn();

    LineConn(const LineConn &) = delete;
    LineConn &operator=(const LineConn &) = delete;

    /** Read one line (without the '\n').  @return false on EOF or
     *  error — the connection is done either way. */
    bool readLine(std::string &out);

    /** Write @p frame, compact-rendered, + '\n' atomically w.r.t.
     *  other writers.  @return false when the peer is gone. */
    bool
    writeFrame(const JsonValue &frame)
    {
        return writeFrames({&frame});
    }

    /** writeFrame of each of @p frames, in order, in one locked write:
     *  no other writer's frame can fall between them. */
    bool writeFrames(std::initializer_list<const JsonValue *> frames);

    /** Half-close both directions, unblocking a reader stuck in
     *  recv() (used to tear down connection threads). */
    void shutdown();

  private:
    /** Send all of @p bytes under the write lock. */
    bool sendAll(const std::string &bytes);

    int fd_;
    std::string buf_;        ///< bytes received past the last line
    std::mutex writeMutex_;
};

} // namespace ltp

#endif // LTP_SERVE_WIRE_HH
