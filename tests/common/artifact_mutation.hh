/**
 * @file
 * A seeded mutation sweep over a framed artifact image
 * (common/bytestream.hh), shared by the .pptrace, pp.ckpt.v2 and
 * result-cache object tests.
 *
 * Each case mutates the payload — bit flips, a truncation or an
 * overwritten word — then recomputes the header hash, so the payload
 * decoder itself is reached. The property: the decode throws
 * ArtifactError, or it succeeds and re-serializing is a fixed point
 * (decode, serialize, decode, serialize gives the first serialization's
 * bytes again). The tally counts the accepted cases that re-encode to
 * other bytes than their input; every decoder here is canonical and
 * has none. No case may die.
 */

#ifndef PP_TESTS_ARTIFACT_MUTATION_HH
#define PP_TESTS_ARTIFACT_MUTATION_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/bytestream.hh"
#include "common/fnv.hh"

namespace pp
{
namespace test
{

/** How the cases of one sweep ended. */
struct MutationTally
{
    unsigned rejected = 0;  ///< threw ArtifactError
    unsigned accepted = 0;  ///< decoded; re-serialization a fixed point
    unsigned reencoded = 0; ///< accepted, but not re-encoded as mutated
};

/** Point @p bytes' header hash at its (mutated) payload. */
inline void
rehashFrame(std::vector<std::uint8_t> &bytes)
{
    const std::uint64_t hash =
        fnv1a(bytes.data() + kFrameBytes, bytes.size() - kFrameBytes);
    for (std::size_t b = 0; b < 8; ++b)
        bytes[16 + b] = static_cast<std::uint8_t>(hash >> (8 * b));
}

/** Case @p i of the sweep over @p image: its payload mutated. */
inline std::vector<std::uint8_t>
mutatePayload(const std::vector<std::uint8_t> &image, unsigned i,
              std::mt19937_64 &rng)
{
    std::vector<std::uint8_t> m = image;
    const std::size_t payload = m.size() - kFrameBytes;
    auto offset = [&] { return kFrameBytes + rng() % payload; };
    switch (i % 3) {
      case 0: // one to three bit flips
        for (unsigned flips = 1 + rng() % 3; flips > 0; --flips)
            m[offset()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        break;
      case 1: // cut anywhere in the payload
        m.resize(offset());
        break;
      default: { // a word overwritten, aligned or not
        const std::size_t at = offset();
        std::uint64_t old = 0;
        for (std::size_t b = 0; b < 8 && at + b < m.size(); ++b)
            old |= static_cast<std::uint64_t>(m[at + b]) << (8 * b);
        const std::uint64_t values[] = {
            rng(), 0, ~0ull, 1, rng() % 256, old + 1, old - 1,
            1ull << (rng() % 64)};
        const std::uint64_t v = values[rng() % 8];
        for (std::size_t b = 0; b < 8 && at + b < m.size(); ++b)
            m[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
        break;
      }
    }
    rehashFrame(m);
    return m;
}

/**
 * Run @p cases mutations of @p image (seeded by @p seed) through
 * @p decode (bytes to artifact) and @p encode (artifact to bytes),
 * expecting ArtifactError or a fixed-point re-serialization of each.
 */
template <typename Decode, typename Encode>
MutationTally
mutateArtifact(const std::vector<std::uint8_t> &image, unsigned cases,
               std::uint64_t seed, Decode decode, Encode encode)
{
    MutationTally tally;
    std::mt19937_64 rng(seed);
    for (unsigned i = 0; i < cases; ++i) {
        const std::vector<std::uint8_t> m = mutatePayload(image, i, rng);
        std::vector<std::uint8_t> once;
        try {
            once = encode(decode(m));
        } catch (const ArtifactError &) {
            ++tally.rejected;
            continue;
        }
        // A serialization must decode: an error here fails the test.
        EXPECT_EQ(encode(decode(once)), once) << "case " << i;
        ++tally.accepted;
        tally.reencoded += once != m ? 1 : 0;
    }
    return tally;
}

} // namespace test
} // namespace pp

#endif // PP_TESTS_ARTIFACT_MUTATION_HH
