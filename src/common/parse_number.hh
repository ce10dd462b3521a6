/**
 * @file
 * Strict number parsing for command-line flags and environment
 * variables: the whole text must be the number. strtoull()/strtod()
 * stop at the first character they cannot use ("1e6" reads as 1, "2k"
 * as 2, "nonsense" as 0) and strtoull() wraps a leading '-' to
 * 2^64-1, so a mistyped window or gate bound ran another experiment,
 * or disarmed its gate, without a word.
 */

#ifndef PP_COMMON_PARSE_NUMBER_HH
#define PP_COMMON_PARSE_NUMBER_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/logging.hh"

namespace pp
{

/** @p text as a u64: base-10 digits only, in range; else nullopt. */
inline std::optional<std::uint64_t>
parseU64(const std::string &text)
{
    errno = 0;
    const std::uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
    if (text.empty() || errno == ERANGE ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    return v;
}

/**
 * @p text as a finite, non-negative plain decimal: digits with at most
 * one '.', no sign, blank, exponent, nan or inf (every bound and
 * tolerance the tools take is written so); else nullopt.
 */
inline std::optional<double>
parseDecimal(const std::string &text)
{
    const double v = std::strtod(text.c_str(), nullptr);
    if (text.find_first_not_of("0123456789.") != std::string::npos ||
        text.find_first_of("0123456789") == std::string::npos ||
        text.find('.') != text.rfind('.') || !std::isfinite(v))
        return std::nullopt;
    return v;
}

/** @p v, or fatal() naming @p what (a flag or variable) and @p text. */
template <typename T>
T
numberOrFatal(const std::optional<T> &v, const char *what,
              const std::string &text)
{
    if (!v)
        fatal(std::string("invalid number for ") + what + ": '" + text +
              "'");
    return *v;
}

inline std::uint64_t
parseU64(const char *what, const std::string &text)
{
    return numberOrFatal(parseU64(text), what, text);
}

inline double
parseDecimal(const char *what, const std::string &text)
{
    return numberOrFatal(parseDecimal(text), what, text);
}

} // namespace pp

#endif // PP_COMMON_PARSE_NUMBER_HH
