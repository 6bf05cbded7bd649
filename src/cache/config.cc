/**
 * @file
 * CacheConfig validation and formatting.
 */

#include "cache/config.h"

#include <sstream>

namespace ibs {

namespace {

bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

void
CacheConfig::validate() const
{
    // The size itself need not be a power of two (a 3-way 384-B cache
    // is legal); only the *set count* must be, because the set index
    // masks address bits.
    if (!isPow2(lineBytes) || lineBytes < 4)
        throw std::invalid_argument(
            "line size must be a power of two >= 4");
    if (assoc == 0)
        throw std::invalid_argument("associativity must be >= 1");
    if (sizeBytes == 0 || sizeBytes % lineBytes != 0)
        throw std::invalid_argument(
            "line size must divide the cache size");
    const uint64_t lines = sizeBytes / lineBytes;
    if (lines == 0 || lines % assoc != 0)
        throw std::invalid_argument(
            "associativity must divide the line count");
    if (!isPow2(numSets()))
        throw std::invalid_argument(
            "set count must be a power of two");
}

std::string
CacheConfig::toString() const
{
    std::ostringstream os;
    if (sizeBytes % 1024 == 0)
        os << sizeBytes / 1024 << "KB";
    else
        os << sizeBytes << "B";
    os << "/" << assoc << "-way/" << lineBytes << "B";
    return os.str();
}

} // namespace ibs
