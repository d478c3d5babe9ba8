/**
 * @file
 * Opt-in stderr traces for hot-path tuning, selected by one
 * environment variable:
 *
 *   CUBICLEOS_TRACE=fault,evict,lifecycle   (any comma-separated subset)
 *
 *   fault      every trap-and-map entry: accessor, access, page, owner, pkey
 *   evict      tag evictions to the parked tag and fault-backs-in
 *   lifecycle  destroy/quiesce/unwind/reclaim/restart transitions
 *
 * The variable is read once per process; with it unset every trace
 * site costs one test of a cached bit mask.
 */

#ifndef CUBICLEOS_CORE_TRACE_H_
#define CUBICLEOS_CORE_TRACE_H_

namespace cubicleos::core {

/** One trace category: a bit in the parsed selector. */
enum class TraceKind : unsigned {
    kFault = 1u << 0,
    kEvict = 1u << 1,
    kLifecycle = 1u << 2,
};

/**
 * Parses a CUBICLEOS_TRACE selector into a TraceKind bit set. Null or
 * empty selects nothing; unknown names are ignored.
 */
unsigned parseTraceSelector(const char *selector);

/** True when @p kind is selected by CUBICLEOS_TRACE. */
bool traceOn(TraceKind kind);

/**
 * printf-style trace line on stderr, written only when @p kind is
 * selected. @p fmt carries the line's own "[tag] " prefix; the newline
 * is appended.
 */
void trace(TraceKind kind, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_TRACE_H_
