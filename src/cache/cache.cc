/**
 * @file
 * Cache implementation.
 */

#include "cache/cache.h"

#include <algorithm>

namespace ibs {

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    config_.validate();
    assoc_ = config_.assoc;
    lineShift_ = config_.lineShift();
    setMask_ = config_.numSets() - 1;
    const size_t lines = config_.numSets() * assoc_;
    tags_.assign(lines, kInvalidTag);
    stamps_.assign(lines, 0);
}

uint32_t
Cache::victimWay(uint64_t set) const
{
    const size_t base = set * assoc_;
    // Prefer an invalid way (invalid slots carry kInvalidTag; the
    // vectorized probe's lowest-match rule reproduces the old scan).
    const int invalid = probeWays(base, kInvalidTag);
    if (invalid >= 0)
        return static_cast<uint32_t>(invalid);
    uint32_t victim = 0;
    for (uint32_t w = 1; w < assoc_; ++w) {
        if (stamps_[base + w] < stamps_[base + victim])
            victim = w;
    }
    return victim;
}

Cache::AccessOutcome
Cache::fill(uint64_t set, uint64_t tag)
{
    AccessOutcome outcome;
    outcome.slot = set;
    if (assoc_ > 1) {
        outcome.slot = set * assoc_ + victimWay(set);
        stamps_[outcome.slot] = ++clock_;
    }
    const uint64_t replaced = tags_[outcome.slot];
    if (replaced != kInvalidTag) {
        outcome.evicted = true;
        outcome.victimAddr = replaced << lineShift_;
        ++evictions_;
    }
    tags_[outcome.slot] = tag;
    return outcome;
}

bool
Cache::access(uint64_t addr)
{
    // accessEx without the outcome; kept separate so the common
    // (no-hierarchy) path pays nothing for the outcome struct.
    ++accesses_;
    // Tag includes the set bits; comparing full line addresses keeps
    // the model correct for any (set, way) geometry.
    const uint64_t tag = addr >> lineShift_;
    const uint64_t set = tag & setMask_;
    if (assoc_ == 1) {
        // Direct-mapped fast path: one slot, one compare, no stamp.
        if (tags_[set] == tag) {
            ++hits_;
            return true;
        }
    } else {
        const size_t base = set * assoc_;
        const int w = probeWays(base, tag);
        if (w >= 0) {
            ++hits_;
            stamps_[base + static_cast<uint32_t>(w)] = ++clock_;
            return true;
        }
    }
    fill(set, tag);
    return false;
}

Cache::AccessOutcome
Cache::accessEx(uint64_t addr)
{
    ++accesses_;
    const uint64_t tag = addr >> lineShift_;
    const uint64_t set = tag & setMask_;
    const size_t base = set * assoc_;
    const int w = probeWays(base, tag);
    if (w < 0)
        return fill(set, tag);
    ++hits_;
    AccessOutcome outcome;
    outcome.hit = true;
    outcome.slot = base + static_cast<uint32_t>(w);
    stamps_[outcome.slot] = ++clock_;
    return outcome;
}

bool
Cache::contains(uint64_t addr) const
{
    const uint64_t tag = addr >> lineShift_;
    const size_t base = (tag & setMask_) * assoc_;
    return probeWays(base, tag) >= 0;
}

void
Cache::insert(uint64_t addr)
{
    const uint64_t tag = addr >> lineShift_;
    const uint64_t set = tag & setMask_;
    const size_t base = set * assoc_;
    const int w = probeWays(base, tag);
    if (w >= 0)
        stamps_[base + static_cast<uint32_t>(w)] = ++clock_;
    else
        fill(set, tag);
}

void
Cache::invalidate(uint64_t addr)
{
    const uint64_t tag = addr >> lineShift_;
    const size_t base = (tag & setMask_) * assoc_;
    const int w = probeWays(base, tag);
    if (w >= 0)
        tags_[base + static_cast<uint32_t>(w)] = kInvalidTag;
}

void
Cache::invalidateAll()
{
    tags_.assign(tags_.size(), kInvalidTag);
}

void
Cache::resetStats()
{
    accesses_ = 0;
    hits_ = 0;
    evictions_ = 0;
}

void
Cache::publishCounters(obs::Registry &registry,
                       const std::string &instance) const
{
    const std::string prefix = "cache." + instance + ".";
    registry.add(prefix + "accesses", accesses_);
    registry.add(prefix + "hits", hits_);
    registry.add(prefix + "misses", misses());
    registry.add(prefix + "evictions", evictions_);
}

uint64_t
Cache::validLines() const
{
    return static_cast<uint64_t>(
        std::count_if(tags_.begin(), tags_.end(),
                      [](uint64_t tag) { return tag != kInvalidTag; }));
}

std::vector<uint64_t>
Cache::validLineAddrs() const
{
    std::vector<uint64_t> out;
    out.reserve(tags_.size());
    for (const uint64_t tag : tags_) {
        if (tag != kInvalidTag)
            out.push_back(tag << lineShift_);
    }
    return out;
}

} // namespace ibs
