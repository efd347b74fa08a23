#include "serve/wire.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/logging.hh"

namespace ltp {

namespace {

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

/** Frames are tiny; Nagle would add 40ms hiccups to the request/
 *  response ping-pong. */
void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

namespace {

/**
 * connect() bounded by @p timeoutMs: flip the socket non-blocking,
 * start the connect, poll for writability, then read SO_ERROR for the
 * real outcome.  @return true on success; on failure @p err is set
 * (blocking mode is restored for the caller either way).
 */
bool
connectWithTimeout(int fd, const struct sockaddr *addr, socklen_t len,
                   int timeoutMs, std::string &err)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        err = std::strerror(errno);
        return false;
    }
    bool ok = false;
    if (::connect(fd, addr, len) == 0) {
        ok = true;
    } else if (errno == EINPROGRESS) {
        struct pollfd pfd = {fd, POLLOUT, 0};
        int rc = ::poll(&pfd, 1, timeoutMs);
        if (rc == 0) {
            err = "connect timed out after " +
                  std::to_string(timeoutMs) + " ms";
        } else if (rc < 0) {
            err = std::strerror(errno);
        } else {
            int so_err = 0;
            socklen_t so_len = sizeof(so_err);
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_err, &so_len);
            if (so_err == 0)
                ok = true;
            else
                err = std::strerror(so_err);
        }
    } else {
        err = std::strerror(errno);
    }
    ::fcntl(fd, F_SETFL, flags);
    return ok;
}

} // namespace

int
connectTcp(const std::string &host, int port, int timeoutMs)
{
    struct addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo *res = nullptr;
    std::string service = std::to_string(port);
    int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
    if (rc != 0)
        throw std::runtime_error("cannot resolve " + host + ":" +
                                 service + ": " + gai_strerror(rc));

    int fd = -1;
    std::string err = "no addresses";
    for (struct addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            err = std::strerror(errno);
            continue;
        }
        bool connected =
            timeoutMs > 0
                ? connectWithTimeout(fd, ai->ai_addr, ai->ai_addrlen,
                                     timeoutMs, err)
                : ::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0;
        if (connected)
            break;
        if (timeoutMs <= 0)
            err = std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0)
        throw std::runtime_error("cannot connect to " + host + ":" +
                                 service + ": " + err +
                                 " (is `ltp serve` running?)");
    setNoDelay(fd);
    return fd;
}

Listener::Listener(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno("socket");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        int e = errno;
        ::close(fd);
        errno = e;
        throwErrno("bind port " + std::to_string(port));
    }
    if (::listen(fd, 64) != 0) {
        int e = errno;
        ::close(fd);
        errno = e;
        throwErrno("listen");
    }

    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr *>(&addr),
                      &len) == 0)
        port_ = ntohs(addr.sin_port);
    else
        port_ = port;
    fd_.store(fd);
}

Listener::~Listener()
{
    close();
}

int
Listener::accept()
{
    int fd = fd_.load();
    if (fd < 0)
        return -1;
    // shutdown() leaves the socket open until close(), which runs only
    // after the accept loop is joined: a late ::accept here sees a
    // shut-down socket (EINVAL), never a reused fd number.
    int conn = ::accept(fd, nullptr, nullptr);
    if (conn >= 0)
        setNoDelay(conn);
    return conn;
}

void
Listener::shutdown()
{
    int fd = fd_.exchange(-1);
    if (fd >= 0) {
        // close() alone does not unblock a thread already parked in
        // accept() on Linux; shutdown() does.
        ::shutdown(fd, SHUT_RDWR);
        stopped_fd_ = fd;
    }
}

void
Listener::close()
{
    shutdown();
    if (stopped_fd_ >= 0) {
        ::close(stopped_fd_);
        stopped_fd_ = -1;
    }
}

LineConn::~LineConn()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
LineConn::readLine(std::string &out)
{
    for (;;) {
        auto nl = buf_.find('\n');
        if (nl != std::string::npos) {
            out.assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            return true;
        }
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return false;
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
LineConn::writeFrames(std::initializer_list<const JsonValue *> frames)
{
    std::string framed;
    for (const JsonValue *frame : frames) {
        framed += writeJsonCompact(*frame);
        framed += '\n';
    }
    return sendAll(framed);
}

bool
LineConn::sendAll(const std::string &bytes)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        // MSG_NOSIGNAL: a vanished peer must surface as a false
        // return, not a process-killing SIGPIPE.
        ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

void
LineConn::shutdown()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

} // namespace ltp
