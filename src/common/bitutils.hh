/**
 * @file
 * Bit manipulation and hashing helpers shared by the predictors.
 */

#ifndef PP_COMMON_BITUTILS_HH
#define PP_COMMON_BITUTILS_HH

#include <cstdint>

#include "common/types.hh"

namespace pp
{

/** Mask of the low @p n bits (n in [0, 64]). */
inline std::uint64_t
mask(unsigned n)
{
    return n >= 64 ? ~0ull : ((1ull << n) - 1);
}

/** Extract bits [lo, lo+len) of @p v. */
inline std::uint64_t
bits(std::uint64_t v, unsigned lo, unsigned len)
{
    return (v >> lo) & mask(len);
}

/**
 * Fold a 64-bit value down to @p out_bits by repeated XOR of out_bits-wide
 * chunks. Classic predictor index folding.
 */
inline std::uint64_t
foldBits(std::uint64_t v, unsigned out_bits)
{
    if (out_bits == 0)
        return 0;
    std::uint64_t r = 0;
    while (v) {
        r ^= v & mask(out_bits);
        v >>= out_bits;
    }
    return r;
}

/**
 * 64-bit finalizer (MurmurHash3 fmix64). Used where a well-mixed hash of a
 * PC is needed, e.g. the predicate predictor's PVT hash functions.
 */
inline std::uint64_t
mix64(std::uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
}

/** True iff @p v is a power of two (and non-zero). */
inline bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)). @pre v > 0. */
inline unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/** ceil(log2(v)). @pre v > 0. */
inline unsigned
ceilLog2(std::uint64_t v)
{
    return isPowerOfTwo(v) ? floorLog2(v) : floorLog2(v) + 1;
}

} // namespace pp

#endif // PP_COMMON_BITUTILS_HH
