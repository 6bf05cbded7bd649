/**
 * @file
 * ThreeCClassifier implementation.
 */

#include "cache/three_c.h"

namespace ibs {

ThreeCClassifier::ThreeCClassifier(uint64_t size_bytes,
                                   uint32_t line_bytes,
                                   uint32_t measured_assoc,
                                   uint32_t proxy_assoc)
    : measured_(CacheConfig{size_bytes, measured_assoc, line_bytes}),
      proxy_(CacheConfig{size_bytes, proxy_assoc, line_bytes})
{
}

void
ThreeCClassifier::accessRun(uint64_t addr, uint64_t count)
{
    accesses_ += count;
    // Only the first reference of a piece can touch its line first.
    const uint64_t line = measured_.config().lineAddr(addr);
    if (touched_.insert(line).second)
        ++compulsory_;
    measured_.accessLine(addr, count);
    proxy_.accessLine(addr, count);
}

ThreeCBreakdown
ThreeCClassifier::breakdown() const
{
    ThreeCBreakdown b;
    b.accesses = accesses_;
    b.compulsory = compulsory_;
    // Capacity: misses the associative proxy still takes, beyond
    // first-touch. Conflict: extra misses of the measured cache over
    // the proxy. Clamp at zero — with LRU an associative cache can
    // occasionally miss where a direct-mapped one hits.
    const uint64_t proxy_misses = proxy_.misses();
    const uint64_t measured_misses = measured_.misses();
    b.capacity = proxy_misses > compulsory_
        ? proxy_misses - compulsory_ : 0;
    b.conflict = measured_misses > proxy_misses
        ? measured_misses - proxy_misses : 0;
    return b;
}

} // namespace ibs
