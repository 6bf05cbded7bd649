/**
 * @file
 * warn() implementation.
 */

#include "obs/log.h"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace ibs::obs {

void
warn(const char *fmt, ...)
{
    // Format into one buffer and emit with a single fprintf so
    // messages from concurrent sweep workers never interleave
    // mid-line.
    va_list ap;
    va_start(ap, fmt);
    va_list probe;
    va_copy(probe, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, probe);
    va_end(probe);
    if (n >= 0) {
        std::vector<char> buf(static_cast<size_t>(n) + 1);
        std::vsnprintf(buf.data(), buf.size(), fmt, ap);
        std::fprintf(stderr, "ibs [warn]: %s\n", buf.data());
    }
    va_end(ap);
}

} // namespace ibs::obs
