#include "mem/mshr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ltp {

MshrFile::MshrFile(int entries)
    : capacity_(entries)
{
    sim_assert(entries > 0);
}

void
MshrFile::expire(Cycle now)
{
    auto dead = std::remove_if(live_.begin(), live_.end(),
                               [now](const Entry &e) {
                                   return e.ready <= now;
                               });
    live_.erase(dead, live_.end());
}

bool
MshrFile::available(Cycle now)
{
    if (isInfinite(capacity_))
        return true;
    expire(now);
    bool ok = static_cast<int>(live_.size()) < capacity_;
    if (!ok)
        fullStalls++;
    return ok;
}

void
MshrFile::allocate(Addr block, Cycle now, Cycle ready)
{
    expire(now);
    sim_assert(isInfinite(capacity_) ||
               static_cast<int>(live_.size()) < capacity_);
    live_.push_back(Entry{block, ready});
    allocations++;
}

int
MshrFile::occupancy(Cycle now)
{
    expire(now);
    return static_cast<int>(live_.size());
}

} // namespace ltp
