#include "program/trace.hh"

#include "common/bitutils.hh"
#include "common/bytestream.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "program/emulator.hh"
#include "program/warm_stream.hh"

namespace pp
{
namespace program
{

namespace
{

constexpr ArtifactFormat kTraceFormat{0x70707472616365ull, // "pptrace"
                                      kTraceVersion, "trace file"};

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
    const std::size_t w1_at = r.at;
    const std::uint64_t w1 = r.u64();
    if ((w1 >> 49) != 0)
        r.fail(ArtifactError::Kind::Malformed, w1_at,
               "instruction bits past if_converted");
    i.src2 = static_cast<RegIndex>(w1 & 0xffff);
    i.pdst1 = static_cast<RegIndex>((w1 >> 16) & 0xffff);
    i.pdst2 = static_cast<RegIndex>((w1 >> 32) & 0xffff);
    i.ifConverted = ((w1 >> 48) & 1) != 0;
    i.imm = static_cast<std::int64_t>(r.u64());
    i.target = r.u64();
    i.condId = static_cast<std::uint32_t>(r.u64Below(1ull << 32));
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
    const std::size_t w0_at = r.at;
    const std::uint64_t w0 = r.u64();
    s.kind = static_cast<ConditionSpec::Kind>(w0 & 0xff);
    s.fn = static_cast<ConditionSpec::Fn>((w0 >> 8) & 0xff);
    if ((w0 >> 16) != 0 || s.kind > ConditionSpec::Kind::DataDep ||
        s.fn > ConditionSpec::Fn::Xor)
        r.fail(ArtifactError::Kind::Malformed, w0_at,
               "unknown condition kind or function");
    s.bias = r.f64();
    s.period = static_cast<std::uint32_t>(r.u64Below(1ull << 32));
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
    panicIfNot(streams_.size() == binary_.conditions().size(),
               "trace streams sized for a different program");
    const std::vector<std::uint8_t> body = payload();
    hash_ = fnv1a(body.data(), body.size());
}

TraceFile::TraceFile(Meta meta, Program binary,
                     std::vector<ConditionStream> streams,
                     std::uint64_t hash)
    : meta_(std::move(meta)), binary_(std::move(binary)),
      streams_(std::move(streams)), hash_(hash)
{
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
    auto mismatch = [&](const std::string &detail) {
        throw ArtifactError(ArtifactError::Kind::Mismatch, kTraceFormat.name,
                            path_, kFrameBytes, detail);
    };
    if (meta_.benchmark != benchmark)
        mismatch("trace is for benchmark '" + meta_.benchmark +
                 "', run wants '" + benchmark + "'");
    if (meta_.seed != seed)
        mismatch("trace was recorded under a different generation seed");
    if (meta_.ifConverted != if_converted)
        mismatch("trace if-conversion variant does not match the run");
    if (meta_.instCount < min_insts)
        mismatch("trace recorded region is shorter than the run window");
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
    return frameArtifact(kTraceFormat, payload());
}

TraceFile
TraceFile::deserialize(const std::vector<std::uint8_t> &bytes,
                       const std::string &path)
{
    const std::uint64_t hash = checkFrame(kTraceFormat, bytes, path);
    ByteReader r{bytes, kTraceFormat.name, kFrameBytes, &path};
    Meta meta;
    meta.benchmark = r.str();
    meta.isFp = r.u64Below(2) != 0;
    meta.ifConverted = r.u64Below(2) != 0;
    meta.seed = r.u64();
    meta.instCount = r.u64();

    // Every field below is checked against what the core and the
    // emulator can run, so a hash-sound trace of an impossible program
    // fails here instead of aborting a run.
    const std::string prog_name = r.str();
    const std::size_t data_at = r.at;
    const std::uint64_t data_bytes = r.u64();
    if (!isPowerOfTwo(data_bytes) || data_bytes < 8 ||
        data_bytes / 8 > kWarmIndexLimit)
        r.fail(ArtifactError::Kind::Malformed, data_at,
               "data segment is not a power of two of 8 B to 2^26 words");
    const std::size_t image_at = r.at;
    std::vector<isa::Instruction> image(r.length(5));
    if (image.empty())
        r.fail(ArtifactError::Kind::Malformed, image_at, "empty code image");
    for (auto &i : image)
        i = getInstruction(r);
    std::vector<ConditionSpec> specs(r.length(6));
    for (auto &s : specs)
        s = getSpec(r);
    for (std::size_t i = 0; i < image.size(); ++i)
        if (const char *why =
                isa::illegalReason(image[i], image.size(), specs.size()))
            r.fail(ArtifactError::Kind::Malformed, image_at + 8 + 40 * i,
                   why);

    // Stream lengths are bit counts, not word counts, so they cannot go
    // through ByteReader::length()'s word-granular bound; validate the
    // implied word count instead.
    const std::size_t streams_at = r.at;
    const std::size_t n_streams = r.length();
    if (n_streams != specs.size())
        r.fail(ArtifactError::Kind::Malformed, streams_at,
               "stream count differs from the condition count");
    std::vector<ConditionStream> streams(n_streams);
    for (ConditionStream &s : streams) {
        const std::size_t field = r.at;
        const std::uint64_t bits = r.u64();
        const std::uint64_t words = bits / 64 + (bits % 64 != 0 ? 1 : 0);
        if (words > (bytes.size() - r.at) / 8)
            r.fail(ArtifactError::Kind::Truncated, field, "truncated");
        s.length = bits;
        s.words.resize(static_cast<std::size_t>(words));
        for (auto &w : s.words)
            w = r.u64();
        if (bits % 64 != 0 && (s.words.back() >> (bits % 64)) != 0)
            r.fail(ArtifactError::Kind::Malformed, r.at - 8,
                   "stream bits past its length");
    }
    r.expectEnd();

    TraceFile trace(std::move(meta),
                    Program(std::move(image), std::move(specs), data_bytes,
                            prog_name),
                    std::move(streams), hash);
    trace.path_ = path;
    return trace;
}

void
TraceFile::store(const std::string &path) const
{
    storeArtifact(kTraceFormat, path, serialize());
}

TraceFile
TraceFile::loadOrThrow(const std::string &path)
{
    return deserialize(readArtifact(kTraceFormat, path), path);
}

} // namespace program
} // namespace pp
