#include "common/bytestream.hh"

#include "common/atomic_io.hh"
#include "common/fnv.hh"
#include "common/logging.hh"

namespace pp
{

ArtifactError::ArtifactError(Kind kind, const char *artifact,
                             std::string path, std::uint64_t offset,
                             const std::string &detail)
    : std::runtime_error(std::string(artifact) +
                         (path.empty() ? "" : " " + path) + ": " + detail +
                         " (byte offset " + std::to_string(offset) + ")"),
      kind_(kind), path_(std::move(path)), offset_(offset)
{
}

void
ByteReader::fail(ArtifactError::Kind kind, std::size_t offset,
                 const char *detail) const
{
    throw ArtifactError(kind, what, path != nullptr ? *path : "", offset,
                        detail);
}

std::vector<std::uint8_t>
frameArtifact(const ArtifactFormat &format,
              const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(kFrameBytes + payload.size());
    putU64(out, format.magic);
    putU64(out, format.version);
    putU64(out, fnv1a(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

std::uint64_t
checkFrame(const ArtifactFormat &format,
           const std::vector<std::uint8_t> &bytes, const std::string &path)
{
    using Kind = ArtifactError::Kind;
    if (bytes.size() < kFrameBytes) {
        throw ArtifactError(Kind::Truncated, format.name, path, bytes.size(),
                            "truncated header (" +
                                std::to_string(bytes.size()) + " bytes)");
    }
    ByteReader r{bytes, format.name, 0, &path};
    if (r.u64() != format.magic) {
        throw ArtifactError(Kind::BadMagic, format.name, path, 0,
                            "not a " + std::string(format.name) +
                                " (bad magic)");
    }
    const std::uint64_t version = r.u64();
    if (version != format.version) {
        throw ArtifactError(Kind::BadVersion, format.name, path, 8,
                            "unsupported version " +
                                std::to_string(version));
    }
    const std::uint64_t hash = r.u64();
    if (fnv1a(bytes.data() + kFrameBytes, bytes.size() - kFrameBytes) !=
        hash) {
        throw ArtifactError(Kind::HashMismatch, format.name, path, 16,
                            "content hash mismatch (corrupt image)");
    }
    return hash;
}

std::vector<std::uint8_t>
readArtifact(const ArtifactFormat &format, const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::string error;
    if (!readFileBytes(path, bytes, &error))
        throw ArtifactError(ArtifactError::Kind::Io, format.name, path, 0,
                            error);
    return bytes;
}

void
storeArtifact(const ArtifactFormat &format, const std::string &path,
              const std::vector<std::uint8_t> &bytes)
{
    std::string error;
    if (!writeFileAtomic(path, std::string(bytes.begin(), bytes.end()),
                         &error))
        panic("cannot write " + std::string(format.name) + " " + path +
              ": " + error);
}

} // namespace pp
