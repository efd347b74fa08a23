/**
 * @file
 * Process-wide memo of limit-study oracle pre-passes.
 *
 * Every NR, NU and NR+NU oracle cell of a sweep classifies its
 * workload from scratch, yet the classification depends only on the
 * workload's content, the seed, the classified span, the memory
 * hierarchy and the oracle parameters — most cells of a Fig. 6 grid
 * share one.  OracleMemo computes each distinct classification once
 * and hands every later requester a read-only handle to the same
 * flags (OracleClassification copies share them).
 *
 *  - Key: workloadIdentity(member) (traces by content CRC), seed,
 *    span, OracleParams, and the registry-rendered `mem` section of
 *    the config, so a newly registered MemConfig field can never
 *    alias two hierarchies.
 *  - In-flight dedupe: the first requester of a key computes;
 *    concurrent requesters wait on its shared future.  A compute that
 *    throws reaches every waiter and drops the entry (a later request
 *    retries instead of inheriting the error).
 *  - Bounded: an LRU capped at kCapBytes of flags.  An evicted entry
 *    stays alive for the cells still holding a handle to it.
 *
 * The memo lives as long as the process, so a long-lived `ltp serve`
 * worker keeps its classifications across requests.
 */

#ifndef LTP_SIM_ORACLE_MEMO_HH
#define LTP_SIM_ORACLE_MEMO_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "ltp/oracle.hh"

namespace ltp {

class OracleMemo
{
  public:
    /** Byte cap of the process-wide memo (flag bytes, one per op). */
    static constexpr std::size_t kCapBytes = std::size_t(64) << 20;

    explicit OracleMemo(std::size_t cap_bytes = kCapBytes)
        : cap_(cap_bytes)
    {
    }

    /** The process-wide memo the Simulator and Sampler share. */
    static OracleMemo &global();

    /**
     * oracleClassify over the first @p span ops of workload @p member
     * (a kernel or `trace:` name, not an smt: tuple), computed at most
     * once per key while it stays resident.
     * @throws whatever the pre-pass throws (unknown or corrupt trace).
     */
    OracleClassification classify(const std::string &member,
                                  std::uint64_t seed, std::uint64_t span,
                                  const MemConfig &mem,
                                  const OracleParams &params = {});

    /**
     * The memo itself: the resident result for @p key, else
     * @p compute()'s result stored under it.  classify() is this with
     * the pre-pass key and compute.
     */
    OracleClassification
    memoize(const std::string &key,
            const std::function<OracleClassification()> &compute);

    std::uint64_t hits() const;
    std::uint64_t computes() const;
    /** Flag bytes held by resident entries. */
    std::size_t bytes() const;

    /** Drop every resident entry (handles already given out live on). */
    void clear();

  private:
    struct Entry
    {
        std::shared_future<OracleClassification> result;
        std::size_t bytes = 0;
        bool ready = false;
        std::list<std::string>::iterator lru; ///< valid once ready
    };

    void evict();

    std::size_t cap_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> entries_;
    std::list<std::string> lru_; ///< ready keys, most recent first
    std::size_t bytes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t computes_ = 0;
};

} // namespace ltp

#endif // LTP_SIM_ORACLE_MEMO_HH
