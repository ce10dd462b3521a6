/**
 * @file
 * Error reporting and leveled diagnostic logging.
 *
 * Error reporting follows gem5's logging.hh conventions: panic() for
 * simulator bugs, fatal() for user/configuration errors — both
 * [[noreturn]], both unconditional.
 *
 * Invariant checks sit on hot paths (every simulated cycle), so their
 * success path must not allocate. panicIfNot() therefore takes only a
 * string literal. A message that has to be composed (std::string
 * concatenation, a path, a number) is built only once the check has
 * failed:
 *
 *     if (!ok)
 *         panic(std::string(what) + " out of range");
 *
 * Diagnostics are leveled and thread-safe: warn() / inform() /
 * logDebug() (and their printf-style *f twins) emit one atomic line to
 * stderr when the global level admits them, so messages from concurrent
 * sweep workers never interleave mid-line. The level comes from the
 * PP_LOG_LEVEL environment variable ("quiet"/"warn"/"info"/"debug" or
 * 0-3, default info) and can be overridden programmatically — the
 * harnesses' --verbose flag maps to setLogLevel(LogLevel::Debug).
 * logRaw()/logRawf() emit unconditionally but still hold the emission
 * lock; they serve output with its own gating (the sweep's --progress
 * line).
 */

#ifndef PP_COMMON_LOGGING_HH
#define PP_COMMON_LOGGING_HH

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

namespace pp
{

/** Diagnostic verbosity, most to least quiet. */
enum class LogLevel : int
{
    Quiet = 0,  ///< errors (panic/fatal) only
    Warn = 1,
    Info = 2,   ///< the default
    Debug = 3,
};

namespace log_detail
{

inline int
levelFromEnv()
{
    const char *v = std::getenv("PP_LOG_LEVEL");
    if (v == nullptr || *v == '\0')
        return static_cast<int>(LogLevel::Info);
    if (std::strcmp(v, "quiet") == 0)
        return static_cast<int>(LogLevel::Quiet);
    if (std::strcmp(v, "warn") == 0)
        return static_cast<int>(LogLevel::Warn);
    if (std::strcmp(v, "info") == 0)
        return static_cast<int>(LogLevel::Info);
    if (std::strcmp(v, "debug") == 0)
        return static_cast<int>(LogLevel::Debug);
    if (v[0] >= '0' && v[0] <= '3' && v[1] == '\0')
        return v[0] - '0';
    std::fprintf(stderr,
                 "warn: unknown PP_LOG_LEVEL '%s' (want quiet/warn/info/"
                 "debug or 0-3); using info\n", v);
    return static_cast<int>(LogLevel::Info);
}

inline std::atomic<int> &
levelVar()
{
    static std::atomic<int> level{levelFromEnv()};
    return level;
}

inline std::mutex &
emitMutex()
{
    static std::mutex m;
    return m;
}

/** One locked write so concurrent workers never interleave mid-line. */
inline void
emit(const char *tag, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(emitMutex());
    if (tag != nullptr)
        std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
    else
        std::fputs(msg.c_str(), stderr);
}

inline std::string
vformat(const char *fmt, std::va_list args)
{
    std::va_list copy;
    va_copy(copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n <= 0)
        return "";
    std::string out(static_cast<std::size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

} // namespace log_detail

/** Override the level (e.g. a --verbose flag); wins over PP_LOG_LEVEL. */
inline void
setLogLevel(LogLevel level)
{
    log_detail::levelVar().store(static_cast<int>(level),
                                 std::memory_order_relaxed);
}

/** True when messages at @p level currently reach stderr. */
inline bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <=
        log_detail::levelVar().load(std::memory_order_relaxed);
}

/** Abort the process: an internal invariant was violated (a simulator bug). */
[[noreturn, gnu::cold]] inline void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

/** Exit cleanly: the user supplied an invalid configuration. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

/** Non-fatal warning (level >= warn). */
inline void
warn(const std::string &msg)
{
    if (logEnabled(LogLevel::Warn))
        log_detail::emit("warn", msg);
}

/** Status message (level >= info). */
inline void
inform(const std::string &msg)
{
    if (logEnabled(LogLevel::Info))
        log_detail::emit("info", msg);
}

/** Debug-level message (level >= debug, i.e. --verbose). */
inline void
logDebug(const std::string &msg)
{
    if (logEnabled(LogLevel::Debug))
        log_detail::emit("debug", msg);
}

#if defined(__GNUC__)
#define PP_PRINTF_LIKE(fmt_idx, arg_idx) \
    __attribute__((format(printf, fmt_idx, arg_idx)))
#else
#define PP_PRINTF_LIKE(fmt_idx, arg_idx)
#endif

/** printf-style warn(). */
inline void warnf(const char *fmt, ...) PP_PRINTF_LIKE(1, 2);
inline void
warnf(const char *fmt, ...)
{
    if (!logEnabled(LogLevel::Warn))
        return;
    std::va_list args;
    va_start(args, fmt);
    log_detail::emit("warn", log_detail::vformat(fmt, args));
    va_end(args);
}

/** printf-style inform(). */
inline void informf(const char *fmt, ...) PP_PRINTF_LIKE(1, 2);
inline void
informf(const char *fmt, ...)
{
    if (!logEnabled(LogLevel::Info))
        return;
    std::va_list args;
    va_start(args, fmt);
    log_detail::emit("info", log_detail::vformat(fmt, args));
    va_end(args);
}

/** printf-style logDebug(). */
inline void logDebugf(const char *fmt, ...) PP_PRINTF_LIKE(1, 2);
inline void
logDebugf(const char *fmt, ...)
{
    if (!logEnabled(LogLevel::Debug))
        return;
    std::va_list args;
    va_start(args, fmt);
    log_detail::emit("debug", log_detail::vformat(fmt, args));
    va_end(args);
}

/**
 * Unleveled, untagged, but still serialized emission for output with
 * its own gating (the --progress line). The message is written
 * verbatim — include any trailing newline.
 */
inline void
logRaw(const std::string &msg)
{
    log_detail::emit(nullptr, msg);
}

/** printf-style logRaw(). */
inline void logRawf(const char *fmt, ...) PP_PRINTF_LIKE(1, 2);
inline void
logRawf(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    log_detail::emit(nullptr, log_detail::vformat(fmt, args));
    va_end(args);
}

/**
 * panic() unless @p cond holds. @p msg is a literal, so a passing
 * check costs one branch; compose a message with `if (!ok) panic(...)`.
 */
inline void
panicIfNot(bool cond, const char *msg)
{
    if (!cond)
        panic(msg);
}

} // namespace pp

#endif // PP_COMMON_LOGGING_HH
