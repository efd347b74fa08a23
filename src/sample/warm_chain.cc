#include "sample/warm_chain.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"
#include "sim/cell_key.hh"

namespace ltp {

namespace {

/** The registry of live chains. */
struct Registry
{
    std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<WarmChain>> live;
    std::size_t built = 0;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

/** A copy of @p mem, @p threads and clones of @p streams, in @p into's
 *  storage when given (copy-assignment reuses the tag arrays). */
std::unique_ptr<WarmPoint>
fillPoint(std::unique_ptr<WarmPoint> into, const MemSystem &mem,
          std::vector<ThreadImage> threads,
          const std::vector<const Workload *> &streams)
{
    if (into)
        into->mem = mem;
    else
        into = std::make_unique<WarmPoint>(WarmPoint{mem, {}, {}});
    into->threads = std::move(threads);
    into->streams.clear();
    for (const Workload *stream : streams)
        into->streams.push_back(stream->clone());
    return into;
}

} // namespace

std::string
ChainSpec::key() const
{
    std::string ids;
    for (const std::string &m : members)
        ids += (ids.empty() ? "" : "+") + workloadIdentity(m);
    std::string from_part =
        from ? strprintf("crc32:%08x", fromCrc) : std::string("none");
    return strprintf("members=%s|seed=%llu|plan=%s|bp=%d/%d|from=%s|mem=",
                     ids.c_str(), (unsigned long long)cfg.seed,
                     plan.toString().c_str(), cfg.core.bpTableBits,
                     cfg.core.btbEntries, from_part.c_str()) +
           memConfigJson(cfg.mem);
}

std::uint64_t
ChainSpec::sampleStart(int i) const
{
    std::uint64_t start = 0;
    if (from)
        for (const ThreadImage &t : from->threads)
            start = std::max(start, t.position);
    return start + std::uint64_t(i + 1) * plan.fastForward +
           std::uint64_t(i) * (plan.warmup + plan.detail);
}

WarmChain::WarmChain(ChainSpec spec)
    : spec_(std::move(spec)), key_(spec_.key())
{
}

std::shared_ptr<WarmChain>
WarmChain::join(ChainSpec spec, Participant &me)
{
    const int n = spec.plan.samples;
    me.results.assign(std::size_t(n), Metrics{});
    me.next = 0;
    me.running = 0;
    me.pending = n;

    std::string key = spec.key();
    Registry &r = registry();
    std::lock_guard<std::mutex> reg(r.mutex);
    std::shared_ptr<WarmChain> &live = r.live[key];
    if (live) {
        std::lock_guard<std::mutex> lock(live->mutex_);
        if (!live->closed_) {
            // Every point produced so far gains a user: @p me.
            for (Slot &slot : live->slots_)
                slot.users += 1;
            live->participants_.push_back(&me);
            return live;
        }
    }
    live = std::make_shared<WarmChain>(std::move(spec));
    r.built += 1;
    live->participants_.push_back(&me); // not yet shared: no lock
    return live;
}

std::unique_ptr<WarmPoint>
WarmChain::release(Slot &slot)
{
    live_ -= 1;
    closed_ = true;
    return std::move(slot.point);
}

std::unique_ptr<WarmPoint>
WarmChain::spare()
{
    if (spare_.empty())
        return nullptr;
    std::unique_ptr<WarmPoint> out = std::move(spare_.back());
    spare_.pop_back();
    return out;
}

std::unique_ptr<WarmPoint>
WarmChain::take(Slot &slot)
{
    if (--slot.users == 0)
        return release(slot);
    // Copied under the lock: the last claim may take the point at any
    // moment after this one, and runs on it.
    const WarmPoint &point = *slot.point;
    std::vector<const Workload *> streams;
    for (const WorkloadPtr &stream : point.streams)
        streams.push_back(stream.get());
    return fillPoint(spare(), point.mem, point.threads, streams);
}

void
WarmChain::leave(Participant &me)
{
    std::vector<std::unique_ptr<WarmPoint>> dropped; // freed unlocked
    {
        // No claims on @p me's tasks after this, and none still
        // running: another thread may be mid-way through one when
        // @p me leaves early on an error.
        std::unique_lock<std::mutex> lock(mutex_);
        int unclaimed = me.next;
        me.next = spec_.plan.samples;
        cv_.wait(lock, [&me] { return me.running == 0; });
        participants_.erase(std::find(participants_.begin(),
                                      participants_.end(), &me));
        // Points @p me never claimed lose it as a user; the last
        // participant out frees what is left.
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            Slot &slot = slots_[i];
            if (i >= std::size_t(unclaimed))
                slot.users -= 1;
            if (slot.point && (slot.users == 0 || participants_.empty()))
                dropped.push_back(release(slot));
        }
        cv_.notify_all();
        if (!participants_.empty())
            return;
        for (std::unique_ptr<WarmPoint> &point : spare_)
            dropped.push_back(std::move(point));
        spare_.clear();
        closed_ = true;
    }
    Registry &r = registry();
    std::lock_guard<std::mutex> reg(r.mutex);
    auto it = r.live.find(key_);
    if (it != r.live.end() && it->second.get() == this)
        r.live.erase(it);
}

std::unique_ptr<WarmPoint>
WarmChain::produce(int i, std::unique_ptr<WarmPoint> into)
{
    if (!ff_) {
        mem_ = std::make_unique<MemSystem>(spec_.cfg.mem);
        ff_ = std::make_unique<FastForward>(spec_.cfg, spec_.members,
                                            *mem_);
        if (spec_.from)
            restoreCheckpoint(*spec_.from, *ff_, *mem_, spec_.workload,
                              spec_.cfg.seed);
    }
    ff_->advanceTo(spec_.sampleStart(i));
    mem_->settle();
    std::vector<const Workload *> streams;
    for (int tid = 0; tid < ff_->numThreads(); ++tid)
        streams.push_back(&ff_->stream(tid));
    return fillPoint(std::move(into), *mem_, captureThreads(*ff_),
                     streams);
}

bool
WarmChain::claim(Participant &me, Participant **owner, int *index)
{
    Participant *best = nullptr;
    int ready = int(slots_.size());
    if (me.next < ready)
        best = &me;
    for (Participant *p : participants_)
        if (p->next < ready && (!best || p->next < best->next))
            best = p;
    if (!best)
        return false;
    *owner = best;
    *index = best->next++;
    best->running += 1;
    return true;
}

void
WarmChain::participate(Participant &me, const PhaseFn &phase)
{
    const int n = spec_.plan.samples;
    auto tag = [n](int i) {
        return std::to_string(i + 1) + "/" + std::to_string(n);
    };
    std::string shown;
    auto show = [&](const std::string &label) {
        if (phase && label != shown) {
            shown = label;
            phase(label);
        }
    };

    std::unique_lock<std::mutex> lock(mutex_);
    try {
        while (me.pending > 0) {
            if (error_)
                std::rethrow_exception(error_);
            int produced = int(slots_.size());
            if (!advancing_ && produced < n && live_ < kMaxLivePoints) {
                advancing_ = true;
                std::unique_ptr<WarmPoint> into = spare();
                lock.unlock();
                std::unique_ptr<WarmPoint> point;
                std::exception_ptr failed;
                try {
                    show("fast-forward " + tag(produced));
                    point = produce(produced, std::move(into));
                } catch (...) {
                    failed = std::current_exception();
                }
                lock.lock();
                advancing_ = false;
                if (failed) {
                    error_ = failed;
                    cv_.notify_all();
                    std::rethrow_exception(failed);
                }
                slots_.push_back(
                    Slot{std::move(point), int(participants_.size())});
                live_ += 1;
                cv_.notify_all();
                continue;
            }
            Participant *owner = nullptr;
            int i = -1;
            if (claim(me, &owner, &i)) {
                std::unique_ptr<WarmPoint> point =
                    take(slots_[std::size_t(i)]);
                lock.unlock();
                Metrics m;
                std::exception_ptr failed;
                try {
                    m = owner->run(i, *point, [&](const char *p) {
                        show((std::string(p) == "warmup" ? "warmup "
                                                         : "sample ") +
                             tag(i));
                    });
                } catch (...) {
                    failed = std::current_exception();
                }
                lock.lock();
                if (int(slots_.size()) < n) // storage for a later capture
                    spare_.push_back(std::move(point));
                owner->results[std::size_t(i)] = std::move(m);
                if (failed && !owner->error)
                    owner->error = failed;
                owner->running -= 1;
                owner->pending -= 1;
                cv_.notify_all();
                continue;
            }
            // Waiting covers the chain's progress (another thread is
            // advancing) or own tasks finishing on other threads.
            std::string label =
                "fast-forward " + tag(std::min(produced, n - 1));
            if (phase && label != shown) {
                lock.unlock();
                show(label);
                lock.lock();
                continue;
            }
            cv_.wait(lock);
        }
    } catch (...) {
        if (lock.owns_lock())
            lock.unlock();
        leave(me);
        throw;
    }
    lock.unlock();
    leave(me);
    if (me.error)
        std::rethrow_exception(me.error);
}

ChainStats
WarmChain::stats()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return ChainStats{r.built, r.live.size()};
}

} // namespace ltp
