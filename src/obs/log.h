/**
 * @file
 * The library's one diagnostic channel: always-on warnings.
 *
 * warn() prints "ibs [warn]: <message>\n" to stderr in a single stdio
 * call, so lines from concurrent sweep workers do not interleave.
 * Nothing ever prints to stdout — bench text output stays
 * byte-identical whether or not a warning fires.
 */

#ifndef IBS_OBS_LOG_H
#define IBS_OBS_LOG_H

namespace ibs::obs {

/** printf-style warning on stderr; a trailing newline is added. */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
void warn(const char *fmt, ...);

} // namespace ibs::obs

#endif // IBS_OBS_LOG_H
