/**
 * @file
 * SubBlockCache implementation.
 */

#include "cache/subblock.h"

#include <stdexcept>

namespace ibs {

SubBlockCache::SubBlockCache(const CacheConfig &config,
                             uint32_t sub_block_bytes)
    : lines_(config), subBytes_(sub_block_bytes)
{
    if (sub_block_bytes == 0 || config.lineBytes % sub_block_bytes != 0)
        throw std::invalid_argument(
            "sub-block size must divide the line size");
    subsPerLine_ = config.lineBytes / sub_block_bytes;
    if (subsPerLine_ > 32)
        throw std::invalid_argument("at most 32 sub-blocks per line");
    validMask_.assign(config.sizeBytes / config.lineBytes, 0);
}

SubBlockResult
SubBlockCache::access(uint64_t addr)
{
    const Cache::AccessOutcome line = lines_.accessEx(addr);
    uint32_t &valid = validMask_[line.slot];
    SubBlockResult result;
    if (!line.hit) {
        result.tagMiss = true;
        valid = 0;
    }
    const uint32_t sub = static_cast<uint32_t>(
        (addr & (config().lineBytes - 1)) / subBytes_);
    if (valid & (1u << sub)) {
        result.hit = true;
        return result;
    }
    // Fill from the missing sub-block to the end of the line.
    ++misses_;
    for (uint32_t s = sub; s < subsPerLine_; ++s) {
        if (!(valid & (1u << s))) {
            valid |= 1u << s;
            ++result.filled;
        }
    }
    filled_ += result.filled;
    return result;
}

} // namespace ibs
