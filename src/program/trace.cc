#include "program/trace.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/atomic_io.hh"
#include "common/bytestream.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "program/emulator.hh"

namespace pp
{
namespace program
{

namespace
{

constexpr std::uint64_t kTraceMagic = 0x70707472616365ull; // "pptrace"
constexpr const char *kWhat = "trace file";
constexpr std::size_t kHeaderBytes = 24; // magic, version, content hash

void
putInstruction(std::vector<std::uint8_t> &out, const isa::Instruction &i)
{
    // Register indices are 16-bit; four to a word keeps the image at
    // five words per instruction.
    putU64(out, static_cast<std::uint64_t>(i.op) |
               (static_cast<std::uint64_t>(i.ctype) << 8) |
               (static_cast<std::uint64_t>(i.qp) << 16) |
               (static_cast<std::uint64_t>(i.dst) << 32) |
               (static_cast<std::uint64_t>(i.src1) << 48));
    putU64(out, static_cast<std::uint64_t>(i.src2) |
               (static_cast<std::uint64_t>(i.pdst1) << 16) |
               (static_cast<std::uint64_t>(i.pdst2) << 32) |
               (static_cast<std::uint64_t>(i.ifConverted ? 1 : 0) << 48));
    putU64(out, static_cast<std::uint64_t>(i.imm));
    putU64(out, i.target);
    putU64(out, i.condId);
}

isa::Instruction
getInstruction(ByteReader &r)
{
    isa::Instruction i;
    const std::uint64_t w0 = r.u64();
    i.op = static_cast<isa::Opcode>(w0 & 0xff);
    i.ctype = static_cast<isa::CmpType>((w0 >> 8) & 0xff);
    i.qp = static_cast<RegIndex>((w0 >> 16) & 0xffff);
    i.dst = static_cast<RegIndex>((w0 >> 32) & 0xffff);
    i.src1 = static_cast<RegIndex>((w0 >> 48) & 0xffff);
    const std::uint64_t w1 = r.u64();
    i.src2 = static_cast<RegIndex>(w1 & 0xffff);
    i.pdst1 = static_cast<RegIndex>((w1 >> 16) & 0xffff);
    i.pdst2 = static_cast<RegIndex>((w1 >> 32) & 0xffff);
    i.ifConverted = ((w1 >> 48) & 1) != 0;
    i.imm = static_cast<std::int64_t>(r.u64());
    i.target = r.u64();
    i.condId = static_cast<std::uint32_t>(r.u64());
    return i;
}

void
putSpec(std::vector<std::uint8_t> &out, const ConditionSpec &s)
{
    putU64(out, static_cast<std::uint64_t>(s.kind) |
               (static_cast<std::uint64_t>(s.fn) << 8));
    putF64(out, s.bias);
    putU64(out, s.period);
    putU64(out, s.pattern);
    putU64(out, static_cast<std::uint64_t>(s.srcs[0]) |
               (static_cast<std::uint64_t>(s.srcs[1]) << 32));
    putF64(out, s.noise);
}

ConditionSpec
getSpec(ByteReader &r)
{
    ConditionSpec s;
    const std::uint64_t w0 = r.u64();
    s.kind = static_cast<ConditionSpec::Kind>(w0 & 0xff);
    s.fn = static_cast<ConditionSpec::Fn>((w0 >> 8) & 0xff);
    s.bias = r.f64();
    s.period = static_cast<std::uint32_t>(r.u64());
    s.pattern = r.u64();
    const std::uint64_t srcs = r.u64();
    s.srcs = {static_cast<CondId>(srcs & 0xffffffff),
              static_cast<CondId>(srcs >> 32)};
    s.noise = r.f64();
    return s;
}

} // namespace

TraceFile::TraceFile(Meta meta, Program binary,
                     std::vector<ConditionStream> streams)
    : TraceFile(std::move(meta), std::move(binary), std::move(streams), 0)
{
    const std::vector<std::uint8_t> body = payload();
    hash_ = fnv1a(body.data(), body.size());
}

TraceFile::TraceFile(Meta meta, Program binary,
                     std::vector<ConditionStream> streams,
                     std::uint64_t hash)
    : meta_(std::move(meta)), binary_(std::move(binary)),
      streams_(std::move(streams)), hash_(hash)
{
    panicIfNot(streams_.size() == binary_.conditions().size(),
               "trace streams sized for a different program");
}

TraceFile
TraceFile::record(const Program &binary, Meta meta, std::uint64_t emu_seed,
                  std::uint64_t n_insts, const DecodedProgram *decoded)
{
    Emulator emu(binary, decoded, emu_seed);
    std::vector<ConditionStream> streams(binary.conditions().size());
    emu.recordConditions(&streams);
    emu.skip(n_insts);
    meta.instCount = n_insts;
    return TraceFile(std::move(meta), binary, std::move(streams));
}

std::string
TraceFile::contentHashHex() const
{
    return hashHex(hash_);
}

void
TraceFile::validate(const std::string &benchmark, std::uint64_t seed,
                    bool if_converted, std::uint64_t min_insts) const
{
    if (meta_.benchmark != benchmark)
        panic("trace is for benchmark '" + meta_.benchmark +
              "', run wants '" + benchmark + "'");
    panicIfNot(meta_.seed == seed,
               "trace was recorded under a different generation seed");
    panicIfNot(meta_.ifConverted == if_converted,
               "trace if-conversion variant does not match the run");
    panicIfNot(meta_.instCount >= min_insts,
               "trace recorded region is shorter than the run window");
}

std::vector<std::uint8_t>
TraceFile::payload() const
{
    std::vector<std::uint8_t> out;
    putString(out, meta_.benchmark);
    putU64(out, meta_.isFp ? 1 : 0);
    putU64(out, meta_.ifConverted ? 1 : 0);
    putU64(out, meta_.seed);
    putU64(out, meta_.instCount);

    putString(out, binary_.progName());
    putU64(out, binary_.dataSize());
    putU64(out, binary_.size());
    for (const isa::Instruction &i : binary_.image())
        putInstruction(out, i);
    putU64(out, binary_.conditions().size());
    for (const ConditionSpec &s : binary_.conditions())
        putSpec(out, s);

    putU64(out, streams_.size());
    for (const ConditionStream &s : streams_) {
        putU64(out, s.length);
        for (const std::uint64_t w : s.words)
            putU64(out, w);
    }
    return out;
}

std::vector<std::uint8_t>
TraceFile::serialize() const
{
    std::vector<std::uint8_t> out;
    putU64(out, kTraceMagic);
    putU64(out, kTraceVersion);
    putU64(out, hash_);
    const std::vector<std::uint8_t> body = payload();
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

TraceFile
TraceFile::deserialize(const std::vector<std::uint8_t> &bytes)
{
    ByteReader r{bytes, kWhat};
    panicIfNot(r.u64() == kTraceMagic, "not a trace file (bad magic)");
    const std::uint64_t version = r.u64();
    panicIfNot(version == kTraceVersion,
               "unsupported trace file version");
    const std::uint64_t want_hash = r.u64();
    // Hash check first: a flipped bit anywhere in the payload must
    // report as corruption, not as whatever structural error it
    // happens to decode into.
    panicIfNot(fnv1a(bytes.data() + r.at, bytes.size() - r.at) ==
                   want_hash,
               "trace file content hash mismatch (corrupt image)");
    return decodePayload(bytes, want_hash);
}

TraceFile
TraceFile::decodePayload(const std::vector<std::uint8_t> &bytes,
                         std::uint64_t hash)
{
    ByteReader r{bytes, kWhat, kHeaderBytes};
    Meta meta;
    meta.benchmark = r.str();
    meta.isFp = r.u64() != 0;
    meta.ifConverted = r.u64() != 0;
    meta.seed = r.u64();
    meta.instCount = r.u64();

    const std::string prog_name = r.str();
    const std::uint64_t data_bytes = r.u64();
    std::vector<isa::Instruction> image(r.length(5));
    for (auto &i : image)
        i = getInstruction(r);
    std::vector<ConditionSpec> specs(r.length(6));
    for (auto &s : specs)
        s = getSpec(r);

    // Stream lengths are bit counts, not word counts, so they cannot go
    // through ByteReader::length()'s word-granular bound; validate the
    // implied word count instead.
    std::vector<ConditionStream> streams(r.length());
    for (ConditionStream &s : streams) {
        const std::uint64_t bits = r.u64();
        const std::uint64_t words = (bits + 63) / 64;
        if (words > (bytes.size() - r.at) / 8)
            panic(std::string(kWhat) + " truncated");
        s.length = bits;
        s.words.resize(static_cast<std::size_t>(words));
        for (auto &w : s.words)
            w = r.u64();
    }
    r.expectEnd();

    return TraceFile(std::move(meta),
                     Program(std::move(image), std::move(specs),
                             data_bytes, prog_name),
                     std::move(streams), hash);
}

void
TraceFile::store(const std::string &path) const
{
    const std::vector<std::uint8_t> bytes = serialize();
    std::string error;
    if (!writeFileAtomic(path,
                         std::string(reinterpret_cast<const char *>(
                                         bytes.data()),
                                     bytes.size()),
                         &error))
        panic("error writing trace file: " + error);
}

TraceError::TraceError(Kind kind, const std::string &path,
                       std::uint64_t offset, const std::string &detail)
    : std::runtime_error("trace file " + path + ": " + detail +
                         " (byte offset " + std::to_string(offset) + ")"),
      kind_(kind), path_(path), offset_(offset)
{}

TraceFile
TraceFile::loadOrThrow(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::string error;
    if (!readFileBytes(path, bytes, &error))
        throw TraceError(TraceError::Kind::Io, path, 0, error);

    // Deterministic fault injection for the supervisor tests/CI: flip
    // one mid-image byte of the in-memory copy only — the artifact on
    // disk may be shared with healthy concurrent workers.
    const char *fault = std::getenv("PP_FAULT");
    if (fault != nullptr && std::strcmp(fault, "corrupt-trace") == 0 &&
        !bytes.empty())
        bytes[bytes.size() / 2] ^= 0x01;

    // Header validation mirrors deserialize() but reports recoverable
    // typed errors with the offending header offset. After the hash
    // matches, the structural decode below can only fail on a 64-bit
    // hash collision, which stays a panic (a simulator bug in practice).
    if (bytes.size() < kHeaderBytes) {
        throw TraceError(TraceError::Kind::Truncated, path, bytes.size(),
                         "truncated header (" +
                             std::to_string(bytes.size()) + " bytes)");
    }
    auto header_u64 = [&](std::size_t at) {
        std::uint64_t v = 0;
        for (std::size_t b = 0; b < 8; ++b)
            v |= static_cast<std::uint64_t>(bytes[at + b]) << (8 * b);
        return v;
    };
    if (header_u64(0) != kTraceMagic) {
        throw TraceError(TraceError::Kind::BadMagic, path, 0,
                         "not a trace file (bad magic)");
    }
    if (header_u64(8) != kTraceVersion) {
        throw TraceError(TraceError::Kind::BadVersion, path, 8,
                         "unsupported version " +
                             std::to_string(header_u64(8)));
    }
    const std::uint64_t hash = header_u64(16);
    if (fnv1a(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes) !=
        hash) {
        throw TraceError(TraceError::Kind::HashMismatch, path, 16,
                         "content hash mismatch (corrupt image)");
    }
    return decodePayload(bytes, hash);
}

TraceFile
TraceFile::load(const std::string &path)
{
    try {
        return loadOrThrow(path);
    } catch (const TraceError &e) {
        panic(e.what());
    }
}

} // namespace program
} // namespace pp
