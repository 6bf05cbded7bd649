/**
 * @file
 * VictimCache implementation.
 */

#include "cache/victim.h"

#include <algorithm>

namespace ibs {

VictimCache::VictimCache(const CacheConfig &config,
                         uint32_t victim_lines)
    : main_(config), victimLines_(victim_lines)
{
}

int
VictimCache::access(uint64_t addr)
{
    const Cache::AccessOutcome outcome = main_.accessEx(addr);
    if (outcome.hit)
        return 0;

    // The incoming line leaves the buffer (a victim hit swaps it
    // back); the line it displaced from the main array enters it.
    const auto it = std::find(victims_.begin(), victims_.end(),
                              main_.config().lineAddr(addr));
    const bool in_victim = it != victims_.end();
    if (in_victim) {
        victims_.erase(it);
        ++victimHits_;
    }
    if (outcome.evicted && victimLines_ > 0) {
        if (victims_.size() >= victimLines_)
            victims_.pop_front();
        victims_.push_back(outcome.victimAddr);
    }
    return in_victim ? 1 : 2;
}

void
VictimCache::invalidateAll()
{
    main_.invalidateAll();
    victims_.clear();
}

} // namespace ibs
