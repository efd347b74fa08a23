#include "sim/oracle_memo.hh"

#include <exception>

#include "common/logging.hh"
#include "sim/cell_key.hh"
#include "sim/config.hh"
#include "trace/suite.hh"

namespace ltp {

OracleMemo &
OracleMemo::global()
{
    static OracleMemo memo;
    return memo;
}

OracleClassification
OracleMemo::classify(const std::string &member, std::uint64_t seed,
                     std::uint64_t span, const MemConfig &mem,
                     const OracleParams &params)
{
    std::string key = strprintf(
        "%s|seed=%llu|span=%llu|urgency=%d|readiness=%d|mem=",
        workloadIdentity(member).c_str(), (unsigned long long)seed,
        (unsigned long long)span, params.urgencyWindow,
        params.readinessWindow) +
        memConfigJson(mem);
    return memoize(key, [&] {
        WorkloadPtr workload = makeKernel(member);
        return oracleClassify(*workload, seed, span, mem, params);
    });
}

OracleClassification
OracleMemo::memoize(const std::string &key,
                    const std::function<OracleClassification()> &compute)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        hits_ += 1;
        if (it->second.ready)
            lru_.splice(lru_.begin(), lru_, it->second.lru);
        std::shared_future<OracleClassification> result =
            it->second.result;
        // An in-flight entry blocks here until its computer finishes
        // (or rethrows the computer's exception).
        lock.unlock();
        return result.get();
    }
    computes_ += 1;
    std::promise<OracleClassification> promise;
    entries_[key].result = promise.get_future().share();
    lock.unlock();

    OracleClassification out;
    try {
        out = compute();
    } catch (...) {
        lock.lock();
        entries_.erase(key);
        lock.unlock();
        promise.set_exception(std::current_exception());
        throw;
    }

    lock.lock();
    Entry &e = entries_.at(key);
    e.ready = true;
    e.bytes = out.size();
    e.lru = lru_.insert(lru_.begin(), key);
    bytes_ += e.bytes;
    evict();
    lock.unlock();
    promise.set_value(out);
    return out;
}

void
OracleMemo::evict()
{
    while (bytes_ > cap_ && !lru_.empty()) {
        auto it = entries_.find(lru_.back());
        bytes_ -= it->second.bytes;
        entries_.erase(it);
        lru_.pop_back();
    }
}

std::uint64_t
OracleMemo::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
OracleMemo::computes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return computes_;
}

std::size_t
OracleMemo::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

void
OracleMemo::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string &key : lru_)
        entries_.erase(key);
    lru_.clear();
    bytes_ = 0;
}

} // namespace ltp
