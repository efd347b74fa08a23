#include "common/file_io.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "common/logging.hh"

namespace ltp {

namespace {

constexpr std::size_t kSealHeader = 8 + 4 + 4; // magic, version, reserved
constexpr std::size_t kSealFooter = 4;         // CRC-32

/** Monotone suffix so concurrent writers in one process never share a
 *  temp file; cross-process uniqueness comes from the pid. */
std::atomic<std::uint64_t> tmp_counter{0};

std::runtime_error
fileError(const char *verb, const std::string &path, int err)
{
    return std::runtime_error("cannot " + std::string(verb) + " '" + path +
                              "': " + std::generic_category().message(err));
}

/** Read @p path into @p out.  @return 0, or the errno of the failure
 *  (EISDIR for a directory, which opens like a file). */
int
readAll(const std::string &path, std::string *out)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return errno;
    out->clear();
    char buf[64 * 1024];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) != 0) {
        if (n > 0)
            out->append(buf, std::size_t(n));
        else if (errno != EINTR)
            break;
    }
    int err = n < 0 ? errno : 0;
    ::close(fd);
    return err;
}

} // namespace

std::string
seal(const char (&magic)[8], std::uint32_t version,
     const std::string &body)
{
    std::string out;
    out.reserve(kSealHeader + body.size() + kSealFooter);
    out.append(magic, sizeof(magic));
    putU32le(out, version);
    putU32le(out, 0); // reserved
    out += body;
    putU32le(out, crc32(out));
    return out;
}

ByteReader
openSealed(const std::string &image, const char (&magic)[8],
           std::uint32_t version, const std::string &what)
{
    auto bad = [&what](const std::string &defect) {
        return std::runtime_error(what + ": " + defect);
    };
    if (image.size() < kSealHeader + kSealFooter)
        throw bad("truncated file (" + std::to_string(image.size()) +
                  " bytes, the container alone needs " +
                  std::to_string(kSealHeader + kSealFooter) + ")");
    if (std::memcmp(image.data(), magic, sizeof(magic)) != 0)
        throw bad("bad magic (not a " + what + " file)");
    ByteReader in(image, sizeof(magic));
    std::uint32_t got = in.u32();
    if (got != version)
        throw bad("unsupported version " + std::to_string(got) +
                  " (this build reads version " + std::to_string(version) +
                  ")");
    if (in.u32() != 0)
        throw bad("nonzero reserved header field");
    Crc32 crc;
    crc.update(image.data(), image.size() - kSealFooter);
    std::uint32_t stored = sealedCrc(image);
    if (crc.value() != stored)
        throw bad(strprintf("CRC mismatch (stored %08x, computed %08x): "
                            "file is corrupt",
                            stored, crc.value()));
    return ByteReader(image, kSealHeader, image.size() - kSealFooter);
}

std::uint32_t
sealedCrc(const std::string &image)
{
    return ByteReader(image, image.size() - kSealFooter).u32();
}

std::string
readFile(const std::string &path)
{
    std::string out;
    if (int err = readAll(path, &out))
        throw fileError("read", path, err);
    return out;
}

bool
tryReadFile(const std::string &path, std::string *out)
{
    return readAll(path, out) == 0;
}

void
writeFileAtomic(const std::string &path, const std::string &bytes)
{
    std::string tmp = path + strprintf(".tmp.%d.%llu", int(::getpid()),
                                       static_cast<unsigned long long>(
                                           tmp_counter.fetch_add(1)));
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                    0666);
    if (fd < 0)
        throw fileError("write", path, errno);
    int err = 0;
    for (std::size_t done = 0; done < bytes.size() && !err;) {
        ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n >= 0)
            done += std::size_t(n);
        else if (errno != EINTR)
            err = errno;
    }
    if (::close(fd) != 0 && !err)
        err = errno;
    if (!err && ::rename(tmp.c_str(), path.c_str()) != 0)
        err = errno;
    if (err) {
        ::unlink(tmp.c_str());
        throw fileError("write", path, err);
    }
}

} // namespace ltp
