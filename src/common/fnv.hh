/**
 * @file
 * FNV-1a 64-bit hashing, shared by every content-identity check in the
 * repo: binary artifact frames (common/bytestream.cc), sweep-store
 * object names (tools/sweep_store.cpp) and result-cache object names
 * (cache/).
 * One definition keeps the identities interoperable — a hash printed by
 * one subsystem can be compared against a hash computed by another.
 */

#ifndef PP_COMMON_FNV_HH
#define PP_COMMON_FNV_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace pp
{

/** FNV-1a 64-bit hash of @p n bytes. */
inline std::uint64_t
fnv1a(const void *bytes, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(bytes);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a 64-bit hash of a string's bytes. */
inline std::uint64_t
fnv1a(const std::string &s)
{
    return fnv1a(s.data(), s.size());
}

/** A 64-bit hash as 16 lowercase hex digits. */
inline std::string
hashHex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace pp

#endif // PP_COMMON_FNV_HH
