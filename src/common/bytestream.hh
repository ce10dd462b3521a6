/**
 * @file
 * The one codec of every binary artifact: little-endian u64 framing,
 * the 24-byte artifact header and the typed error every decode throws.
 *
 * Fields are little-endian 64-bit words, so images are portable across
 * hosts and trivially auditable; only bulk streams of narrow values
 * (packed warm events) use 32-bit words. A file artifact (.pptrace,
 * pp.ckpt.v2) is a frame: magic, version and the
 * FNV-1a hash of the payload, then the payload. frameArtifact() writes
 * it, checkFrame() verifies it before any payload decode, and
 * readArtifact()/storeArtifact() move it to and from disk.
 *
 * Readers validate as they go and throw ArtifactError on malformed
 * input: images cross process and machine boundaries (distributed
 * sampling, trace artifacts), so corruption must fail as a typed,
 * classifiable error naming the file and the byte offset — never as a
 * panic, a silent divergence or a multi-exabyte allocation.
 */

#ifndef PP_COMMON_BYTESTREAM_HH
#define PP_COMMON_BYTESTREAM_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace pp
{

/**
 * Recoverable failure of a binary artifact: the file is unreadable,
 * not this format, the wrong version, truncated, fails its content
 * hash or decodes to malformed structure; or it is a sound artifact
 * of another workload (TraceFile::validate()). Typed so a supervising
 * process classifies "corrupt artifact" apart from a worker crash.
 *
 * what() reads "<artifact> <path>: <detail> (byte offset N)": the
 * offset of the offending field (0 = magic or the file itself, 8 =
 * version, 16 = content hash, 24 on = the payload; for a short header,
 * the file's size).
 */
class ArtifactError : public std::runtime_error
{
  public:
    enum class Kind
    {
        Io,           ///< cannot open/read the file
        Truncated,    ///< ends before a field or a length it declares
        BadMagic,     ///< not this artifact format
        BadVersion,   ///< format version unsupported by this build
        HashMismatch, ///< payload bytes do not match the header hash
        Malformed,    ///< hash-sound bytes of an impossible structure
        Mismatch,     ///< a sound artifact of another workload
    };

    ArtifactError(Kind kind, const char *artifact, std::string path,
                  std::uint64_t offset, const std::string &detail);

    Kind kind() const { return kind_; }
    const std::string &path() const { return path_; }
    std::uint64_t offset() const { return offset_; }

  private:
    Kind kind_;
    std::string path_;
    std::uint64_t offset_;
};

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

/** Append a u32 vector: u64 length, then 4 little-endian bytes each. */
inline void
putU32Vec(std::vector<std::uint8_t> &out, const std::vector<std::uint32_t> &v)
{
    putU64(out, v.size());
    for (const std::uint32_t x : v)
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
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
 * the artifact and @p path, when set, the file it came from, in the
 * ArtifactError every failed read throws.
 */
struct ByteReader
{
    const std::vector<std::uint8_t> &bytes;
    const char *what;
    std::size_t at = 0;
    const std::string *path = nullptr;

    /** Throw an ArtifactError of @p kind at byte @p offset. */
    [[noreturn, gnu::cold]] void fail(ArtifactError::Kind kind,
                                      std::size_t offset,
                                      const char *detail) const;

    std::uint64_t
    u64()
    {
        if (at + 8 > bytes.size())
            fail(ArtifactError::Kind::Truncated, at, "truncated");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
        at += 8;
        return v;
    }

    /**
     * A u64 field that must be below @p limit (Malformed otherwise): a
     * 0/1 flag, a narrow integer or an index.
     */
    std::uint64_t
    u64Below(std::uint64_t limit)
    {
        const std::size_t field = at;
        const std::uint64_t v = u64();
        if (v >= limit)
            fail(ArtifactError::Kind::Malformed, field, "field out of range");
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
        return lengthOf(8 * unit_words);
    }

    /** As length(), for elements of at least @p unit_bytes bytes. */
    std::size_t
    lengthOf(std::size_t unit_bytes)
    {
        const std::size_t field = at;
        const std::uint64_t n = u64();
        if (n > (bytes.size() - at) / unit_bytes)
            fail(ArtifactError::Kind::Truncated, field, "truncated");
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

    std::vector<std::uint32_t>
    u32Vec()
    {
        std::vector<std::uint32_t> v(lengthOf(4));
        for (auto &x : v) {
            for (int i = 0; i < 4; ++i)
                x |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
            at += 4;
        }
        return v;
    }

    std::string
    str()
    {
        const std::size_t field = at;
        const std::uint64_t n = u64();
        if (n > bytes.size() - at)
            fail(ArtifactError::Kind::Truncated, field, "truncated");
        std::string s(reinterpret_cast<const char *>(bytes.data() + at),
                      static_cast<std::size_t>(n));
        at += static_cast<std::size_t>(n);
        return s;
    }

    /** Throw (Malformed) unless the whole image was consumed. */
    void
    expectEnd() const
    {
        if (at != bytes.size())
            fail(ArtifactError::Kind::Malformed, at, "has trailing bytes");
    }
};

/** One framed artifact format: its header words and its name. */
struct ArtifactFormat
{
    std::uint64_t magic;
    std::uint64_t version;
    const char *name; ///< "trace file": names it in every error
};

/** Header bytes before every framed payload: magic, version, hash. */
constexpr std::size_t kFrameBytes = 24;

/** @p payload framed as @p format: the header, then the payload. */
std::vector<std::uint8_t>
frameArtifact(const ArtifactFormat &format,
              const std::vector<std::uint8_t> &payload);

/**
 * Check the frame of @p bytes (read from @p path, "" in memory) against
 * @p format — size, magic, version, then the payload's hash, before
 * any of it is decoded — and return that hash. Throws ArtifactError.
 */
std::uint64_t checkFrame(const ArtifactFormat &format,
                         const std::vector<std::uint8_t> &bytes,
                         const std::string &path);

/** The whole of @p path; ArtifactError (Io) when it cannot be read. */
std::vector<std::uint8_t> readArtifact(const ArtifactFormat &format,
                                       const std::string &path);

/**
 * Write @p bytes to @p path atomically (tmp file + rename,
 * common/atomic_io.hh), so a killed writer never leaves a torn artifact
 * under the final name; panic on I/O failure.
 */
void storeArtifact(const ArtifactFormat &format, const std::string &path,
                   const std::vector<std::uint8_t> &bytes);

} // namespace pp

#endif // PP_COMMON_BYTESTREAM_HH
