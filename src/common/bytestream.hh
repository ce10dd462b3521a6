/**
 * @file
 * Little-endian u64 byte framing shared by every serialized artifact
 * (emulator checkpoints, trace files). Everything is written as 64-bit
 * words so images are portable across hosts and trivially auditable;
 * the size overhead is irrelevant next to the payloads (register files,
 * data memory, code images).
 *
 * Readers validate as they go and panic() on malformed input: images
 * cross process and machine boundaries (distributed sampling, trace
 * artifacts), so corruption must fail the documented way — never as a
 * silent divergence or a multi-exabyte allocation.
 */

#ifndef PP_COMMON_BYTESTREAM_HH
#define PP_COMMON_BYTESTREAM_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace pp
{

/** Append @p v little-endian to @p out. */
inline void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** Append a double's bit pattern (exact round-trip, no formatting). */
inline void
putF64(std::vector<std::uint8_t> &out, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

/** Append a length-prefixed u64 vector. */
inline void
putU64Vec(std::vector<std::uint8_t> &out, const std::vector<std::uint64_t> &v)
{
    putU64(out, v.size());
    for (const std::uint64_t x : v)
        putU64(out, x);
}

/** Append a length-prefixed byte string (u64 length, then raw bytes). */
inline void
putString(std::vector<std::uint8_t> &out, const std::string &s)
{
    putU64(out, s.size());
    for (const char c : s)
        out.push_back(static_cast<std::uint8_t>(c));
}

/**
 * Sequential validated reader over a serialized image. @p what names
 * the artifact in panic messages ("emulator checkpoint image", "trace
 * file").
 */
struct ByteReader
{
    const std::vector<std::uint8_t> &bytes;
    const char *what;
    std::size_t at = 0;

    std::uint64_t
    u64()
    {
        if (at + 8 > bytes.size())
            panic(std::string(what) + " truncated");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
        at += 8;
        return v;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    /**
     * A length prefix, validated against the bytes remaining BEFORE any
     * container is sized from it. @p unit_words is the minimum number of
     * u64 words one element occupies, so a corrupt length fails here
     * instead of as a giant allocation.
     */
    std::size_t
    length(std::size_t unit_words = 1)
    {
        const std::uint64_t n = u64();
        if (n > (bytes.size() - at) / (8 * unit_words))
            panic(std::string(what) + " truncated");
        return static_cast<std::size_t>(n);
    }

    std::vector<std::uint64_t>
    u64Vec()
    {
        std::vector<std::uint64_t> v(length());
        for (auto &x : v)
            x = u64();
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (n > bytes.size() - at)
            panic(std::string(what) + " truncated");
        std::string s(reinterpret_cast<const char *>(bytes.data() + at),
                      static_cast<std::size_t>(n));
        at += static_cast<std::size_t>(n);
        return s;
    }

    /** Panic unless the whole image was consumed. */
    void
    expectEnd() const
    {
        if (at != bytes.size())
            panic(std::string(what) + " has trailing bytes");
    }
};

} // namespace pp

#endif // PP_COMMON_BYTESTREAM_HH
