/**
 * @file
 * The artifact codec every binary format shares (common/bytestream.hh):
 * exact round trips, hostile input that throws a typed ArtifactError
 * naming the offending offset before any container is sized from it
 * (an emulator checkpoint's claimed data segment included), and decode
 * and check paths that allocate nothing while the input is good. The frame check is exercised through the formats that use it
 * (test_trace, test_window_checkpoint).
 *
 * This binary replaces the global allocation functions with counting
 * ones, so a test can assert how many allocations a call made.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytestream.hh"
#include "common/logging.hh"
#include "program/asmprog.hh"
#include "program/emulator.hh"
#include "program/warm_stream.hh"

namespace
{

/** operator new calls made by this process so far. */
std::size_t gNewCalls = 0;

/** Largest allocation operator new grants; a larger one throws
 *  std::bad_alloc, so a test can tell an allocation that ran before a
 *  length check from the check's ArtifactError. */
std::size_t gNewLimit = std::numeric_limits<std::size_t>::max();

} // namespace

// Both out of line: inlined, gcc would pair the malloc() in one with the
// free() in the other at each call site and warn of a mismatch.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (n > gNewLimit)
        throw std::bad_alloc();
    ++gNewCalls;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return ::operator new(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

void operator delete[](void *p) noexcept { ::operator delete(p); }
void operator delete(void *p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void *p, std::size_t) noexcept { ::operator delete(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

using namespace pp;

namespace
{

constexpr const char *kWhat = "test image";

/** Allocation cap for the hostile-length tests: far above any error
 *  message, far below what the inflated prefixes claim. */
constexpr std::size_t kSmallAlloc = 4096;

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
doubleOf(std::uint64_t bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/** One short image holding every field kind, ending off word alignment
 *  so truncation covers partial words everywhere. */
std::vector<std::uint8_t>
sampleImage()
{
    std::vector<std::uint8_t> out;
    putU64(out, 0x0123456789abcdefull);
    putF64(out, -0.0);
    putU64Vec(out, {7, ~0ull});
    putU32Vec(out, {5});
    putString(out, "abc");
    putU64(out, 1); // a length() prefix for one word...
    putU64(out, 9); // ...and that word
    putString(out, "xy");
    return out;
}

/** Decode sampleImage()'s layout in full. */
void
decodeSample(const std::vector<std::uint8_t> &bytes)
{
    ByteReader r{bytes, kWhat};
    r.u64();
    r.f64();
    r.u64Vec();
    r.u32Vec();
    r.str();
    for (std::size_t i = r.length(); i > 0; --i)
        r.u64();
    r.str();
    r.expectEnd();
}

/**
 * Read from @p bytes with @p read while operator new refuses anything
 * over kSmallAlloc, and return the error it throws: std::bad_alloc (an
 * allocation ran before the length check) propagates as a failure.
 */
template <typename Read>
ArtifactError
readCapped(const std::vector<std::uint8_t> &bytes, Read read)
{
    struct Cap
    {
        Cap() { gNewLimit = kSmallAlloc; }
        ~Cap() { gNewLimit = std::numeric_limits<std::size_t>::max(); }
    };
    try {
        const Cap cap;
        ByteReader r{bytes, kWhat};
        read(r);
    } catch (const ArtifactError &e) {
        return e;
    }
    ADD_FAILURE() << "expected ArtifactError";
    return ArtifactError(ArtifactError::Kind::Io, kWhat, "", 0, "none");
}

/** The error decodeSample() throws on @p bytes. */
ArtifactError
decodeError(const std::vector<std::uint8_t> &bytes)
{
    try {
        decodeSample(bytes);
    } catch (const ArtifactError &e) {
        return e;
    }
    ADD_FAILURE() << "expected ArtifactError";
    return ArtifactError(ArtifactError::Kind::Io, kWhat, "", 0, "none");
}

} // namespace

TEST(ByteStream, U64IsLittleEndian)
{
    std::vector<std::uint8_t> out;
    putU64(out, 0x0807060504030201ull);
    EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(ByteStream, RoundTripsEveryFieldKind)
{
    const std::vector<std::uint64_t> words = {0, 1, ~0ull,
                                              0x8000000000000000ull};
    const std::string binary("a\0b\xff", 4);
    // f64 round-trips bit patterns, not values: -0 keeps its sign and a
    // NaN keeps its payload.
    const std::uint64_t neg_zero = bitsOf(-0.0);
    const std::uint64_t nan = 0x7ff80000deadbeefull;
    const std::uint64_t signalling_nan = 0xfff0000000000001ull;

    std::vector<std::uint8_t> out;
    putU64(out, 0);
    putU64(out, ~0ull);
    putF64(out, doubleOf(neg_zero));
    putF64(out, doubleOf(nan));
    putF64(out, doubleOf(signalling_nan));
    putF64(out, 1.5);
    putU64Vec(out, {});
    putU64Vec(out, words);
    putU32Vec(out, {0, 1, 0xffffffffu});
    putString(out, "");
    putString(out, binary);
    putString(out, "a string longer than the small buffer");

    ByteReader r{out, kWhat};
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.u64(), ~0ull);
    EXPECT_EQ(bitsOf(r.f64()), neg_zero);
    EXPECT_EQ(bitsOf(r.f64()), nan);
    EXPECT_EQ(bitsOf(r.f64()), signalling_nan);
    EXPECT_EQ(r.f64(), 1.5);
    EXPECT_TRUE(r.u64Vec().empty());
    EXPECT_EQ(r.u64Vec(), words);
    EXPECT_EQ(r.u32Vec(), (std::vector<std::uint32_t>{0, 1, 0xffffffffu}));
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.str(), binary);
    EXPECT_EQ(r.str(), "a string longer than the small buffer");
    EXPECT_EQ(r.at, out.size());
    r.expectEnd();
}

TEST(ByteStream, U64BelowRejectsTheLimitAndAbove)
{
    std::vector<std::uint8_t> image;
    putU64(image, 1);
    putU64(image, 2);
    putU64(image, std::uint64_t{1} << 32);
    ByteReader r{image, kWhat};
    EXPECT_EQ(r.u64Below(2), 1u);
    try {
        r.u64Below(2);
        ADD_FAILURE() << "expected ArtifactError";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ArtifactError::Kind::Malformed);
        EXPECT_EQ(e.offset(), 8u);
    }
    EXPECT_THROW(r.u64Below(std::uint64_t{1} << 32), ArtifactError);
}

TEST(ByteStream, LengthAcceptsExactlyWhatRemains)
{
    // A prefix that claims exactly the remaining words (or bytes, for a
    // string) is valid; the tests below add one more.
    std::vector<std::uint8_t> image;
    putU64(image, 2);
    putU64(image, 10);
    putU64(image, 11);
    ByteReader words{image, kWhat};
    EXPECT_EQ(words.length(), 2u);

    std::vector<std::uint8_t> text;
    putU64(text, 3);
    text.insert(text.end(), {'a', 'b', 'c'});
    ByteReader chars{text, kWhat};
    EXPECT_EQ(chars.str(), "abc");
    chars.expectEnd();
}

TEST(ByteStream, EveryTruncatedPrefixIsTruncated)
{
    const std::vector<std::uint8_t> image = sampleImage();
    decodeSample(image);
    for (std::size_t n = 0; n < image.size(); ++n) {
        const std::vector<std::uint8_t> prefix(
            image.begin(), image.begin() + static_cast<std::ptrdiff_t>(n));
        const ArtifactError e = decodeError(prefix);
        EXPECT_EQ(e.kind(), ArtifactError::Kind::Truncated)
            << "prefix of " << n << " of " << image.size() << " bytes";
        EXPECT_LE(e.offset(), n);
        EXPECT_STREQ(e.what(), ("test image: truncated (byte offset " +
                                std::to_string(e.offset()) + ")")
                                   .c_str());
    }
}

TEST(ByteStream, InflatedLengthsThrowBeforeAllocating)
{
    // Each prefix claims more than the two words (16 bytes) that follow
    // it: by one word, by one byte, and by far.
    for (const std::uint64_t claim :
         {std::uint64_t{3}, std::uint64_t{17}, std::uint64_t{1} << 20,
          std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
        std::vector<std::uint8_t> image;
        putU64(image, claim);
        putU64(image, 1);
        putU64(image, 2);
        SCOPED_TRACE("claim " + std::to_string(claim));

        // Each names the length prefix, at offset 0.
        for (const ArtifactError &e :
             {readCapped(image, [](ByteReader &r) { r.length(); }),
              readCapped(image, [](ByteReader &r) { r.u64Vec(); })}) {
            EXPECT_EQ(e.kind(), ArtifactError::Kind::Truncated);
            EXPECT_EQ(e.offset(), 0u);
        }
        if (claim > 4) { // more 4-byte elements than 16 bytes hold
            const ArtifactError e =
                readCapped(image, [](ByteReader &r) { r.u32Vec(); });
            EXPECT_EQ(e.kind(), ArtifactError::Kind::Truncated);
            EXPECT_EQ(e.offset(), 0u);
        }
        if (claim <= 16)
            continue; // a valid string length
        const ArtifactError e =
            readCapped(image, [](ByteReader &r) { r.str(); });
        EXPECT_EQ(e.kind(), ArtifactError::Kind::Truncated);
        EXPECT_EQ(e.offset(), 0u);
    }

    // Two words remain, which is too few for one 5-word element.
    std::vector<std::uint8_t> image;
    putU64(image, 1);
    putU64(image, 1);
    putU64(image, 2);
    EXPECT_EQ(readCapped(image, [](ByteReader &r) { r.length(5); }).kind(),
              ArtifactError::Kind::Truncated);
}

TEST(ByteStream, OverLimitCheckpointSegmentThrowsBeforeAllocating)
{
    // A first checkpoint image records its data segment's size; a claim
    // past the warm-stream limit must fail before the all-zero base
    // image's page table (16 bytes per 4 KiB page) is sized from it.
    program::AsmProgram p;
    p.emit(isa::makeNop());
    const program::Program bin = p.assemble(1 << 12, "t");
    program::Emulator emu(bin, 1);
    const program::Emulator::Checkpoint c = emu.checkpoint();
    std::vector<std::uint8_t> image = c.serialize();
    const std::size_t size_at =
        8 * (1 + 3 + c.intRegs.size() + c.fpRegs.size() + c.predRegs.size());
    for (const std::uint64_t claim :
         {program::kWarmIndexLimit + 1, std::uint64_t{1} << 40,
          ~std::uint64_t{0}}) {
        SCOPED_TRACE("claim " + std::to_string(claim));
        for (std::size_t b = 0; b < 8; ++b)
            image[size_at + b] = static_cast<std::uint8_t>(claim >> (8 * b));
        const ArtifactError e = readCapped(image, [](ByteReader &r) {
            program::Emulator::Checkpoint::deserialize(r, nullptr);
        });
        EXPECT_EQ(e.kind(), ArtifactError::Kind::Malformed) << e.what();
        EXPECT_EQ(e.offset(), size_at);
    }
}

TEST(ByteStream, TrailingByteIsMalformed)
{
    std::vector<std::uint8_t> image = sampleImage();
    image.push_back(0);
    const ArtifactError e = decodeError(image);
    EXPECT_EQ(e.kind(), ArtifactError::Kind::Malformed);
    EXPECT_EQ(e.offset(), image.size() - 1);
    EXPECT_STREQ(e.what(), ("test image: has trailing bytes (byte offset " +
                            std::to_string(image.size() - 1) + ")")
                               .c_str());
}

TEST(ByteStream, ErrorsNameTheFileAndOffset)
{
    const std::string path = "/data/x.bin";
    std::vector<std::uint8_t> image;
    putU64(image, 5);
    ByteReader r{image, kWhat, 0, &path};
    r.u64();
    try {
        r.u64();
        ADD_FAILURE() << "expected ArtifactError";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.path(), path);
        EXPECT_EQ(e.offset(), 8u);
        EXPECT_STREQ(e.what(),
                     "test image /data/x.bin: truncated (byte offset 8)");
    }
}

TEST(ByteStreamAllocation, DecodingAllocatesNothingPerWord)
{
    // A long `what` makes a message built per word cost a heap string.
    std::vector<std::uint64_t> words(10000);
    std::iota(words.begin(), words.end(), 1);
    std::vector<std::uint8_t> image;
    putU64Vec(image, words);

    // Word by word into storage the caller already holds: nothing.
    std::vector<std::uint64_t> back(words.size());
    std::size_t before = gNewCalls;
    {
        ByteReader r{image, "checkpoint-set image"};
        const std::size_t n = r.length();
        for (std::size_t i = 0; i < n; ++i)
            back[i] = r.u64();
        r.expectEnd();
    }
    EXPECT_EQ(gNewCalls - before, 0u);
    EXPECT_EQ(back, words);

    // u64Vec(): only the storage of the vector it returns.
    before = gNewCalls;
    ByteReader r{image, "checkpoint-set image"};
    const std::vector<std::uint64_t> vec = r.u64Vec();
    EXPECT_EQ(gNewCalls - before, 1u);
    EXPECT_EQ(vec, words);
}

TEST(ByteStreamAllocation, PassingChecksNeverAllocate)
{
    volatile bool ok = true; // keep the check a run-time one
    const std::size_t before = gNewCalls;
    for (int i = 0; i < 10000; ++i)
        panicIfNot(ok, "a check message over fifteen characters");
    EXPECT_EQ(gNewCalls - before, 0u);
}
