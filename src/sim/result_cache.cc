#include "sim/result_cache.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/binio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/report.hh"
#include "sim/scenario.hh"

namespace fs = std::filesystem;

namespace ltp {

namespace {

/** Monotone suffix so concurrent writers in one process never share a
 *  temp file; cross-process uniqueness comes from the pid. */
std::atomic<std::uint64_t> tmp_counter{0};

bool
isHexKey(const std::string &s)
{
    if (s.size() != 64)
        return false;
    for (char c : s)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    return true;
}

/** Call fn(path, key, bytes) for each entry file under @p dir. */
template <class Fn>
void
forEachEntry(const std::string &dir, Fn fn)
{
    std::error_code ec;
    fs::recursive_directory_iterator it(dir, ec), end;
    if (ec)
        return;
    for (; it != end; it.increment(ec)) {
        if (ec)
            break;
        if (!it->is_regular_file(ec))
            continue;
        const fs::path &p = it->path();
        std::string key = p.stem().string();
        if (p.extension() != ".json" || !isHexKey(key))
            continue; // temp files and strays are not entries
        fn(p, std::move(key), std::uint64_t(it->file_size(ec)));
    }
}

/** Every entry opens with these bytes, then 8 hex digits: the CRC-32
 *  of every byte after them. */
const std::string kSealLead = "{\n  \"crc32\": \"";

/** Parse one entry file; throws on a checksum, structural or version
 *  defect. */
CacheEntryInfo
parseEntry(const std::string &key, const std::string &text,
           Metrics *metrics_out)
{
    const std::size_t at = kSealLead.size();
    if (text.size() < at + 8 || text.compare(0, at, kSealLead) != 0 ||
        text.compare(at, 8, strprintf("%08x", crc32(text.substr(at + 8)))))
        throw std::runtime_error("entry checksum mismatch");

    JsonValue root = parseJson(text);
    if (!root.isObject())
        throw std::runtime_error("entry is not a JSON object");
    auto field = [&](const char *name) -> const JsonValue & {
        auto it = root.object.find(name);
        if (it == root.object.end())
            throw std::runtime_error(std::string("missing field '") +
                                     name + "'");
        return it->second;
    };
    if (field("key").str != key)
        throw std::runtime_error("stored key disagrees with file name");

    CacheEntryInfo info;
    info.key = key;
    info.model = field("model").str;
    info.config = field("config").str;
    info.workload = field("workload").str;
    const JsonValue &lengths = field("lengths");
    auto u64of = [&](const char *name) {
        auto it = lengths.object.find(name);
        return it == lengths.object.end() ? 0 : jsonToU64(it->second);
    };
    info.funcWarm = u64of("funcWarm");
    info.pipeWarm = u64of("pipeWarm");
    info.detail = u64of("detail");

    // metricsFromJson re-checks the embedded schemaVersion and throws
    // on anything newer than this reader.
    Metrics m = metricsFromJson(field("metrics"));
    if (metrics_out)
        *metrics_out = std::move(m);
    info.valid = true;
    return info;
}

} // namespace

ResultCache::ResultCache(const std::string &dir)
    : dir_(dir.empty() ? defaultDir() : dir)
{
}

std::string
ResultCache::defaultDir()
{
    if (const char *env = std::getenv("LTP_CACHE_DIR"); env && *env)
        return env;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
        return std::string(xdg) + "/ltp";
    if (const char *home = std::getenv("HOME"); home && *home)
        return std::string(home) + "/.cache/ltp";
    return ".ltp-cache"; // homeless environments (some CI sandboxes)
}

std::string
ResultCache::entryPath(const std::string &hexKey) const
{
    return dir_ + "/" + hexKey.substr(0, 2) + "/" + hexKey.substr(2, 2) +
           "/" + hexKey + ".json";
}

bool
ResultCache::lookup(const CellKey &key, Metrics *out) const
{
    std::ifstream in(entryPath(key.hex), std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    Metrics m;
    try {
        // Another build's number is a miss, whatever key it sits at.
        if (parseEntry(key.hex, text.str(), &m).model != modelFingerprint())
            return false;
    } catch (const std::runtime_error &) {
        return false; // damaged or future-versioned: a miss, not data
    }
    if (out)
        *out = std::move(m);
    return true;
}

void
ResultCache::store(const CellKey &key, const SimConfig &cfg,
                   const RunLengths &lengths, const Metrics &m) const
{
    std::string path = entryPath(key.hex);
    fs::path target(path);

    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
        warn("result cache: cannot create %s: %s",
             target.parent_path().string().c_str(),
             ec.message().c_str());
        return; // caching is an optimization; never fail the run
    }

    JsonValue body = jsonObject({{"model", jsonStr(modelFingerprint())},
                                 {"key", jsonStr(key.hex)},
                                 {"config", jsonStr(cfg.name)},
                                 {"workload", jsonStr(key.workload)},
                                 {"lengths", lengthsTree(lengths)}});
    body.object["metrics"] = metricsTree(m);

    std::string tmp = path + strprintf(".tmp.%d.%llu", getpid(),
                                       static_cast<unsigned long long>(
                                           tmp_counter.fetch_add(1)));
    {
        std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
        if (!outf) {
            warn("result cache: cannot write %s", tmp.c_str());
            return;
        }
        // The seal leads; the body's own keys follow in sorted order.
        std::string rest = "\",\n" + writeJson(body).substr(2) + "\n";
        outf << kSealLead << strprintf("%08x", crc32(rest)) << rest;
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        warn("result cache: rename to %s failed: %s", path.c_str(),
             ec.message().c_str());
        fs::remove(tmp, ec);
    }
}

std::vector<CacheEntryInfo>
ResultCache::list() const
{
    std::vector<CacheEntryInfo> out;
    forEachEntry(dir_, [&](const fs::path &p, std::string key,
                           std::uint64_t bytes) {
        CacheEntryInfo info;
        info.key = std::move(key);
        std::ifstream in(p, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        try {
            info = parseEntry(info.key, text.str(), nullptr);
        } catch (const std::runtime_error &) {
            info.valid = false;
        }
        info.bytes = bytes;
        out.push_back(std::move(info));
    });
    std::sort(out.begin(), out.end(),
              [](const CacheEntryInfo &a, const CacheEntryInfo &b) {
                  return a.key < b.key;
              });
    return out;
}

CacheStats
ResultCache::stats() const
{
    CacheStats s;
    for (const CacheEntryInfo &e : list()) {
        s.entries += 1;
        s.bytes += e.bytes;
        if (!e.valid)
            s.invalid += 1;
    }
    return s;
}

CacheStats
ResultCache::usage() const
{
    CacheStats s;
    forEachEntry(dir_, [&](const fs::path &, std::string,
                           std::uint64_t bytes) {
        s.entries += 1;
        s.bytes += bytes;
    });
    return s;
}

std::size_t
ResultCache::gc(double maxAgeDays, std::uint64_t maxBytes,
                bool otherModels) const
{
    std::size_t removed = 0;
    std::error_code ec;
    auto now = fs::file_time_type::clock::now();

    // Survivors of the invalid/age pass, with mtime and size, so the
    // size pass can evict coldest-first without re-statting.
    struct Survivor
    {
        std::string key;
        std::uint64_t bytes;
        fs::file_time_type mtime;
    };
    std::vector<Survivor> kept;
    std::uint64_t kept_bytes = 0;

    for (const CacheEntryInfo &e : list()) {
        fs::path p(entryPath(e.key));
        bool drop = !e.valid ||
                    (otherModels && e.model != modelFingerprint());
        auto mtime = fs::last_write_time(p, ec);
        if (ec)
            mtime = now; // unstattable: treat as fresh, not evictable
        if (!drop && maxAgeDays > 0.0) {
            double age_days =
                std::chrono::duration<double>(now - mtime).count() /
                86400.0;
            drop = age_days > maxAgeDays;
        }
        if (drop) {
            if (fs::remove(p, ec) && !ec)
                removed += 1;
        } else {
            kept.push_back(Survivor{e.key, e.bytes, mtime});
            kept_bytes += e.bytes;
        }
    }

    if (maxBytes > 0 && kept_bytes > maxBytes) {
        // Least-recently-written first; key as tiebreak so the
        // eviction order is deterministic under equal mtimes.
        std::sort(kept.begin(), kept.end(),
                  [](const Survivor &a, const Survivor &b) {
                      if (a.mtime != b.mtime)
                          return a.mtime < b.mtime;
                      return a.key < b.key;
                  });
        for (const Survivor &s : kept) {
            if (kept_bytes <= maxBytes)
                break;
            if (fs::remove(entryPath(s.key), ec) && !ec) {
                removed += 1;
                kept_bytes -= s.bytes;
            }
        }
    }
    return removed;
}

std::size_t
ResultCache::clear() const
{
    std::size_t removed = 0;
    std::error_code ec;
    for (const CacheEntryInfo &e : list())
        if (fs::remove(entryPath(e.key), ec) && !ec)
            removed += 1;
    return removed;
}

} // namespace ltp
