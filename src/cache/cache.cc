/**
 * @file
 * Cache implementation.
 */

#include "cache/cache.h"

#include <bit>
#include <cassert>

namespace ibs {

uint64_t
Cache::lfsrSeed(const CacheConfig &config)
{
    // Documented mix (see the header): splitmix64-style avalanche of
    // the geometry, XORed into 0xace1 and folded to 16 bits.
    uint64_t h = config.sizeBytes;
    h ^= (uint64_t{config.assoc} << 32) | config.lineBytes;
    h *= 0x9e3779b97f4a7c15ull;
    h ^= h >> 32;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
    const uint64_t seed = (0xace1 ^ h ^ (h >> 16) ^ (h >> 32)) & 0xffff;
    return seed ? seed : 0xace1;
}

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    config_.validate();
    assoc_ = config_.assoc;
    lineShift_ = config_.lineShift();
    setMask_ = config_.numSets() - 1;
    lfsr_ = lfsrSeed(config_);
    const size_t lines = config_.numSets() * assoc_;
    tags_.assign(lines, kInvalidTag);
    stamps_.assign(lines, 0);
    valid_.assign((lines + 63) / 64, 0);
}

uint32_t
Cache::victimWay(uint64_t set)
{
    const size_t base = set * assoc_;
    // Prefer an invalid way (invalid slots carry kInvalidTag; the
    // vectorized probe's lowest-match rule reproduces the old scan).
    const int invalid = probeWays(base, kInvalidTag);
    if (invalid >= 0)
        return static_cast<uint32_t>(invalid);
    switch (config_.replacement) {
      case Replacement::LRU:
      case Replacement::FIFO: {
        uint32_t victim = 0;
        uint64_t oldest = stamps_[base];
        for (uint32_t w = 1; w < assoc_; ++w) {
            if (stamps_[base + w] < oldest) {
                oldest = stamps_[base + w];
                victim = w;
            }
        }
        return victim;
      }
      case Replacement::Random: {
        // Deterministic 16-bit Galois LFSR, drawn without modulo
        // bias: mask to the next power of two >= assoc and redraw
        // until the value lands in range. For power-of-two
        // associativity every draw is accepted, so victim sequences
        // are unchanged there.
        const uint64_t mask = std::bit_ceil(uint64_t{assoc_}) - 1;
        for (;;) {
            const uint64_t bit = ((lfsr_ >> 0) ^ (lfsr_ >> 2) ^
                                  (lfsr_ >> 3) ^ (lfsr_ >> 5)) & 1u;
            lfsr_ = (lfsr_ >> 1) | (bit << 15);
            const uint64_t draw = lfsr_ & mask;
            if (draw < assoc_)
                return static_cast<uint32_t>(draw);
        }
      }
    }
    return 0;
}

bool
Cache::access(uint64_t addr)
{
    // Mirror of accessEx without eviction reporting; kept separate so
    // the common (no-hierarchy) path pays nothing for the outcome
    // struct.
    ++accesses_;
    // Tag includes the set bits; comparing full line addresses keeps
    // the model correct for any (set, way) geometry.
    const uint64_t tag = addr >> lineShift_;
    const uint64_t set = tag & setMask_;
    if (assoc_ == 1) {
        // Direct-mapped fast path: one slot, one compare.
        if (tags_[set] == tag) {
            ++hits_;
            if (config_.replacement == Replacement::LRU)
                stamps_[set] = ++clock_;
            return true;
        }
        if (tags_[set] != kInvalidTag)
            ++evictions_;
        tags_[set] = tag;
        setValid(set);
        stamps_[set] = ++clock_;
        return false;
    }
    const size_t base = set * assoc_;
    const int w = probeWays(base, tag);
    if (w >= 0) {
        ++hits_;
        if (config_.replacement == Replacement::LRU)
            stamps_[base + static_cast<uint32_t>(w)] = ++clock_;
        return true;
    }
    const size_t slot = base + victimWay(set);
    if (tags_[slot] != kInvalidTag)
        ++evictions_;
    tags_[slot] = tag;
    setValid(slot);
    stamps_[slot] = ++clock_;
    return false;
}

Cache::AccessOutcome
Cache::accessEx(uint64_t addr)
{
    ++accesses_;
    AccessOutcome outcome;
    const uint64_t tag = addr >> lineShift_;
    const uint64_t set = tag & setMask_;
    const size_t base = set * assoc_;
    const int w = probeWays(base, tag);
    if (w >= 0) {
        ++hits_;
        outcome.slot = base + static_cast<uint32_t>(w);
        if (config_.replacement == Replacement::LRU)
            stamps_[outcome.slot] = ++clock_;
        outcome.hit = true;
        return outcome;
    }
    const size_t slot = base + victimWay(set);
    if (tags_[slot] != kInvalidTag) {
        outcome.evicted = true;
        outcome.victimAddr = tags_[slot] << lineShift_;
        ++evictions_;
    }
    tags_[slot] = tag;
    setValid(slot);
    stamps_[slot] = ++clock_;
    outcome.slot = slot;
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
    if (w >= 0) {
        if (config_.replacement == Replacement::LRU)
            stamps_[base + static_cast<uint32_t>(w)] = ++clock_;
        return;
    }
    const size_t slot = base + victimWay(set);
    if (tags_[slot] != kInvalidTag)
        ++evictions_;
    tags_[slot] = tag;
    setValid(slot);
    stamps_[slot] = ++clock_;
}

void
Cache::invalidate(uint64_t addr)
{
    const uint64_t tag = addr >> lineShift_;
    const size_t base = (tag & setMask_) * assoc_;
    const int w = probeWays(base, tag);
    if (w >= 0) {
        tags_[base + static_cast<uint32_t>(w)] = kInvalidTag;
        clearValid(base + static_cast<uint32_t>(w));
    }
}

void
Cache::invalidateAll()
{
    tags_.assign(tags_.size(), kInvalidTag);
    valid_.assign(valid_.size(), 0);
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
    uint64_t n = 0;
    for (uint64_t word : valid_)
        n += static_cast<uint64_t>(std::popcount(word));
    return n;
}

std::vector<uint64_t>
Cache::validLineAddrs() const
{
    std::vector<uint64_t> out;
    out.reserve(tags_.size());
    for (size_t i = 0; i < tags_.size(); ++i) {
        if (isValid(i))
            out.push_back(tags_[i] << lineShift_);
    }
    return out;
}

} // namespace ibs
