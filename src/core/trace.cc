#include "core/trace.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace cubicleos::core {

unsigned
parseTraceSelector(const char *selector)
{
    if (selector == nullptr)
        return 0;
    unsigned mask = 0;
    std::string_view rest(selector);
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string_view name = rest.substr(0, comma);
        if (name == "fault")
            mask |= static_cast<unsigned>(TraceKind::kFault);
        else if (name == "evict")
            mask |= static_cast<unsigned>(TraceKind::kEvict);
        else if (name == "lifecycle")
            mask |= static_cast<unsigned>(TraceKind::kLifecycle);
        if (comma == std::string_view::npos)
            break;
        rest.remove_prefix(comma + 1);
    }
    return mask;
}

bool
traceOn(TraceKind kind)
{
    static const unsigned mask =
        parseTraceSelector(std::getenv("CUBICLEOS_TRACE"));
    return (mask & static_cast<unsigned>(kind)) != 0;
}

void
trace(TraceKind kind, const char *fmt, ...)
{
    if (!traceOn(kind))
        return;
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
}

} // namespace cubicleos::core
