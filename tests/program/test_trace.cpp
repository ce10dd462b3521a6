/**
 * @file
 * Tests for the trace record/replay workload-artifact layer.
 *
 * The load-bearing contract: a trace recorded from a generated program
 * and replayed — through the serialized byte image — reproduces the
 * live execution bit-for-bit, at emulator level (every ExecRecord and
 * final architectural state, across the whole extended suite and both
 * if-conversion variants) and at sweep level (byte-identical
 * pp.sweep.v1 JSON modulo the host_ms scrub, full and sampled runs).
 * The image's bytes are pinned by a golden hash, and damaged or
 * mutated images, or sound images of programs the core cannot run, end
 * in a typed ArtifactError, never a panic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "../common/artifact_mutation.hh"
#include "common/fnv.hh"
#include "driver/result_sink.hh"
#include "driver/run_matrix.hh"
#include "driver/sweep_engine.hh"
#include "program/emulator.hh"
#include "program/suite.hh"
#include "program/trace.hh"
#include "sim/simulator.hh"

using namespace pp;
using namespace pp::program;

namespace
{

/** Instructions compared per program in the suite-wide round trip. */
constexpr std::uint64_t kRoundTripInsts = 12000;

/**
 * Compare records by content. The instruction pointers land in two
 * different images (the live binary vs the trace's deserialized copy),
 * so compare their indices, not their addresses.
 */
void
expectRecordsEqual(const ExecRecord &a, const ExecRecord &b,
                   const isa::Instruction *image_a,
                   const isa::Instruction *image_b,
                   const std::string &what, std::uint64_t step)
{
    ASSERT_EQ(a.pc, b.pc) << what << " step " << step;
    ASSERT_EQ(a.ins - image_a, b.ins - image_b) << what << " step " << step;
    ASSERT_EQ(a.qpVal, b.qpVal) << what << " step " << step;
    ASSERT_EQ(a.condVal, b.condVal) << what << " step " << step;
    ASSERT_EQ(a.pd1Written, b.pd1Written) << what << " step " << step;
    ASSERT_EQ(a.pd2Written, b.pd2Written) << what << " step " << step;
    ASSERT_EQ(a.pd1Val, b.pd1Val) << what << " step " << step;
    ASSERT_EQ(a.pd2Val, b.pd2Val) << what << " step " << step;
    ASSERT_EQ(a.branchTaken, b.branchTaken) << what << " step " << step;
    ASSERT_EQ(a.nextPc, b.nextPc) << what << " step " << step;
    ASSERT_EQ(a.memAddr, b.memAddr) << what << " step " << step;
}

void
expectStateEqual(const Emulator &a, const Emulator &b,
                 const std::string &what)
{
    EXPECT_EQ(a.pc(), b.pc()) << what;
    EXPECT_EQ(a.instCount(), b.instCount()) << what;
    EXPECT_EQ(a.callDepth(), b.callDepth()) << what;
    for (RegIndex r = 0; r < isa::numIntRegs; ++r)
        ASSERT_EQ(a.intReg(r), b.intReg(r)) << what << " r" << int(r);
    for (RegIndex r = 0; r < isa::numFpRegs; ++r)
        ASSERT_EQ(a.fpReg(r), b.fpReg(r)) << what << " f" << int(r);
    for (RegIndex r = 0; r < isa::numPredRegs; ++r)
        ASSERT_EQ(a.predReg(r), b.predReg(r)) << what << " p" << int(r);
}

TraceFile::Meta
metaFor(const BenchmarkProfile &profile, bool if_convert)
{
    TraceFile::Meta m;
    m.benchmark = profile.name;
    m.isFp = profile.isFp;
    m.ifConverted = if_convert;
    m.seed = profile.seed;
    return m;
}

/** A fresh private directory under the test temp root. */
std::string
makeTraceDir()
{
    std::string templ = testing::TempDir() + "pptraceXXXXXX";
    const char *dir = mkdtemp(templ.data());
    EXPECT_NE(dir, nullptr);
    return templ;
}

} // namespace

// ---------------------------------------------------------------------
// Emulator-level round trip: record -> serialize -> deserialize ->
// replay == live generation, byte for byte, across the whole suite.
// ---------------------------------------------------------------------

TEST(TraceRoundTrip, ReplayMatchesLiveGenerationAcrossExtendedSuite)
{
    for (const BenchmarkProfile &profile : extendedSuite()) {
        for (const bool ifc : {false, true}) {
            const std::string what =
                profile.name + (ifc ? "+ifc" : "");
            const Program binary = sim::buildBinary(profile, ifc);
            const std::uint64_t seed = sim::coreSeed(profile);

            const TraceFile recorded = TraceFile::record(
                binary, metaFor(profile, ifc), seed, kRoundTripInsts);
            const TraceFile trace =
                TraceFile::deserialize(recorded.serialize());
            ASSERT_EQ(trace.contentHash(), recorded.contentHash()) << what;
            ASSERT_EQ(trace.meta().benchmark, profile.name) << what;
            ASSERT_EQ(trace.meta().ifConverted, ifc) << what;
            ASSERT_EQ(trace.meta().instCount, kRoundTripInsts) << what;

            Emulator live(binary, seed);
            Emulator replay(trace.binary(), nullptr, seed, &trace);
            ASSERT_TRUE(replay.replaying()) << what;
            for (std::uint64_t i = 0; i < kRoundTripInsts; ++i) {
                const ExecRecord ra = live.step();
                const ExecRecord rb = replay.step();
                expectRecordsEqual(ra, rb, binary.image().data(),
                                   trace.binary().image().data(), what, i);
            }
            expectStateEqual(live, replay, what);
        }
    }
}

TEST(TraceRoundTrip, LegacyInterpreterReplaysIdentically)
{
    const BenchmarkProfile profile = profileByName("gzip");
    const Program binary = sim::buildBinary(profile, true);
    const std::uint64_t seed = sim::coreSeed(profile);
    const TraceFile trace = TraceFile::deserialize(
        TraceFile::record(binary, metaFor(profile, true), seed, 20000)
            .serialize());

    Emulator live(binary, seed);
    Emulator replay(trace.binary(), nullptr, seed, &trace);
    for (std::uint64_t i = 0; i < 20000; ++i) {
        const ExecRecord ra = live.stepLegacy();
        const ExecRecord rb = replay.stepLegacy();
        expectRecordsEqual(ra, rb, binary.image().data(),
                           trace.binary().image().data(), "legacy", i);
    }
    expectStateEqual(live, replay, "legacy");
}

TEST(TraceRoundTrip, SkipTierReplaysIdentically)
{
    const BenchmarkProfile profile = profileByName("crafty");
    const Program binary = sim::buildBinary(profile, false);
    const std::uint64_t seed = sim::coreSeed(profile);
    const TraceFile trace = TraceFile::record(
        binary, metaFor(profile, false), seed, 30000);

    Emulator live(binary, seed);
    Emulator replay(trace.binary(), nullptr, seed, &trace);
    live.skip(25000);
    replay.skip(25000);
    expectStateEqual(live, replay, "skip");
}

TEST(TraceRoundTrip, StoreLoadSurvivesDisk)
{
    const BenchmarkProfile profile = profileByName("swim");
    const Program binary = sim::buildBinary(profile, false);
    const TraceFile recorded = TraceFile::record(
        binary, metaFor(profile, false), sim::coreSeed(profile), 5000);

    const std::string path = makeTraceDir() + "/swim.pptrace";
    recorded.store(path);
    const TraceFile loaded = TraceFile::loadOrThrow(path);
    EXPECT_EQ(loaded.contentHash(), recorded.contentHash());
    EXPECT_EQ(loaded.contentHashHex(), recorded.contentHashHex());
    EXPECT_EQ(loaded.binary().size(), binary.size());
    EXPECT_EQ(loaded.streams().size(), binary.conditions().size());
    loaded.validate(profile.name, profile.seed, false, 5000);
}

TEST(TraceLoad, NonFilePathIsATypedIoError)
{
    // A directory opens like a file but has no size to read: the
    // loader must report a bad artifact, not run out of memory.
    const std::string dir = makeTraceDir();
    for (const std::string &path : {dir, dir + "/missing.pptrace"}) {
        try {
            TraceFile::loadOrThrow(path);
            ADD_FAILURE() << path << ": expected ArtifactError";
        } catch (const ArtifactError &e) {
            EXPECT_EQ(e.kind(), ArtifactError::Kind::Io) << e.what();
            EXPECT_EQ(e.path(), path);
        }
    }
}

TEST(TraceLoad, ValidateRejectsMismatchedRun)
{
    const BenchmarkProfile profile = profileByName("gzip");
    const Program binary = sim::buildBinary(profile, false);
    const TraceFile trace = TraceFile::record(
        binary, metaFor(profile, false), sim::coreSeed(profile), 1000);
    auto expect_mismatch = [&](const std::string &benchmark,
                               std::uint64_t seed, bool if_converted,
                               std::uint64_t min_insts,
                               const std::string &detail) {
        try {
            trace.validate(benchmark, seed, if_converted, min_insts);
            ADD_FAILURE() << detail << ": expected ArtifactError";
        } catch (const ArtifactError &e) {
            EXPECT_EQ(e.kind(), ArtifactError::Kind::Mismatch) << e.what();
            EXPECT_NE(std::string(e.what()).find(detail), std::string::npos)
                << e.what();
        }
    };
    expect_mismatch("mcf", profile.seed, false, 100, "benchmark");
    expect_mismatch(profile.name, profile.seed + 1, false, 100, "seed");
    expect_mismatch(profile.name, profile.seed, true, 100, "if-conversion");
    expect_mismatch(profile.name, profile.seed, false, 5000, "shorter");
    trace.validate(profile.name, profile.seed, false, 1000);
}

// ---------------------------------------------------------------------
// Malformed artifacts fail typed: the header checks, the payload
// decoder, and a thousand mutations that reach it.
// ---------------------------------------------------------------------

namespace
{

/** A small recorded image: gzip, 1000 instructions. */
std::vector<std::uint8_t>
smallTraceImage()
{
    const BenchmarkProfile profile = profileByName("gzip");
    const Program binary = sim::buildBinary(profile, false);
    return TraceFile::record(binary, metaFor(profile, false),
                             sim::coreSeed(profile), 1000)
        .serialize();
}

/** The error deserialize() throws on @p image. */
ArtifactError
decodeError(const std::vector<std::uint8_t> &image)
{
    try {
        TraceFile::deserialize(image);
    } catch (const ArtifactError &e) {
        return e;
    }
    ADD_FAILURE() << "expected ArtifactError";
    return ArtifactError(ArtifactError::Kind::Io, "", "", 0, "");
}

} // namespace

TEST(TraceLoad, CorruptedHeaderIsBadMagic)
{
    std::vector<std::uint8_t> image = smallTraceImage();
    image[0] ^= 0xff;
    const ArtifactError e = decodeError(image);
    EXPECT_EQ(e.kind(), ArtifactError::Kind::BadMagic) << e.what();
    EXPECT_EQ(e.offset(), 0u);
}

TEST(TraceLoad, VersionMismatchIsBadVersion)
{
    std::vector<std::uint8_t> image = smallTraceImage();
    image[8] = 99; // version word follows the magic
    const ArtifactError e = decodeError(image);
    EXPECT_EQ(e.kind(), ArtifactError::Kind::BadVersion) << e.what();
    EXPECT_EQ(e.offset(), 8u);
}

TEST(TraceLoad, PayloadCorruptionFailsTheContentHash)
{
    std::vector<std::uint8_t> image = smallTraceImage();
    image[image.size() / 2] ^= 0x01;
    const ArtifactError e = decodeError(image);
    EXPECT_EQ(e.kind(), ArtifactError::Kind::HashMismatch) << e.what();
    EXPECT_EQ(e.offset(), 16u);
}

TEST(TraceLoad, TruncatedImageIsTruncated)
{
    std::vector<std::uint8_t> image = smallTraceImage();
    image.resize(16); // magic + version survive; everything else gone
    const ArtifactError e = decodeError(image);
    EXPECT_EQ(e.kind(), ArtifactError::Kind::Truncated) << e.what();
    EXPECT_EQ(e.offset(), 16u);
}

TEST(TraceLoad, StreamCountMustMatchTheConditions)
{
    const BenchmarkProfile profile = profileByName("gzip");
    const Program binary = sim::buildBinary(profile, false);
    const TraceFile trace = TraceFile::record(
        binary, metaFor(profile, false), sim::coreSeed(profile), 1000);
    std::vector<std::uint8_t> image = trace.serialize();
    // The stream count follows the frame, the metadata (two strings,
    // four words), the data size and the length-prefixed instruction
    // (5 words each) and condition (6 words each) tables.
    const std::size_t count_at = 24 + 8 + trace.meta().benchmark.size() +
        8 * 4 + 8 + binary.progName().size() + 8 + 8 +
        40 * binary.size() + 8 + 48 * binary.conditions().size();
    ASSERT_EQ(image[count_at], binary.conditions().size() & 0xff);
    image[count_at] -= 1;
    test::rehashFrame(image);
    const ArtifactError e = decodeError(image);
    EXPECT_EQ(e.kind(), ArtifactError::Kind::Malformed) << e.what();
    EXPECT_EQ(e.offset(), count_at);
}

TEST(TraceLoad, ErrorsNameTheFile)
{
    std::vector<std::uint8_t> image = smallTraceImage();
    image[image.size() / 2] ^= 0x01;
    const std::string path = makeTraceDir() + "/rot.pptrace";
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char *>(image.data()),
               static_cast<std::streamsize>(image.size()));
    try {
        TraceFile::loadOrThrow(path);
        ADD_FAILURE() << "expected ArtifactError";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ArtifactError::Kind::HashMismatch);
        EXPECT_EQ(e.path(), path);
        EXPECT_EQ(std::string(e.what()),
                  "trace file " + path +
                      ": content hash mismatch (corrupt image) (byte "
                      "offset 16)");
    }
}

TEST(TraceLoad, SerializedBytesMatchTheGoldenHash)
{
    // Pins the .pptrace bytes themselves, not just their round trip:
    // gzip, if-converted, 20000 instructions recorded.
    const BenchmarkProfile profile = profileByName("gzip");
    const Program binary = sim::buildBinary(profile, true);
    const std::vector<std::uint8_t> image =
        TraceFile::record(binary, metaFor(profile, true),
                          sim::coreSeed(profile), 20000)
            .serialize();
    EXPECT_EQ(image.size(), 45204u);
    EXPECT_EQ(hashHex(fnv1a(image.data(), image.size())),
              "1c44be1ae5c5d6a2");
}

TEST(TraceLoad, MutatedImagesFailTypedOrReencodeToAFixedPoint)
{
    const std::vector<std::uint8_t> image = smallTraceImage();
    const test::MutationTally tally = test::mutateArtifact(
        image, 1200, 0x7472616365ull,
        [](const std::vector<std::uint8_t> &b) {
            return TraceFile::deserialize(b);
        },
        [](const TraceFile &t) { return t.serialize(); });
    // Both outcomes occur, so neither half of the property is vacuous,
    // and the decoder is canonical: no field holds bits the encoder
    // would not write back.
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_EQ(tally.reencoded, 0u);
}

namespace
{

/** The index of the first instruction of @p image with opcode @p op. */
std::size_t
firstOf(const std::vector<isa::Instruction> &image, isa::Opcode op)
{
    const auto it = std::find_if(
        image.begin(), image.end(),
        [op](const isa::Instruction &i) { return i.op == op; });
    EXPECT_NE(it, image.end());
    return static_cast<std::size_t>(it - image.begin());
}

} // namespace

TEST(TraceLoad, ImpossibleProgramsAreMalformed)
{
    // Hash-sound images of programs the core cannot run fail at load:
    // run, they would abort (an unknown opcode, a condition id past the
    // table, a data segment of no power of two) or read out of bounds
    // in the rename map (a destination past the register file).
    const BenchmarkProfile profile = profileByName("gzip");
    const TraceFile trace =
        TraceFile::record(sim::buildBinary(profile, false),
                          metaFor(profile, false), sim::coreSeed(profile),
                          5000);
    const auto edited = [&](const std::function<void(
                                std::vector<isa::Instruction> &,
                                std::uint64_t &)> &edit) {
        std::vector<isa::Instruction> image = trace.binary().image();
        std::uint64_t data_bytes = trace.binary().dataSize();
        edit(image, data_bytes);
        return TraceFile(trace.meta(),
                         Program(std::move(image), trace.binary().conditions(),
                                 data_bytes, trace.binary().progName()),
                         trace.streams())
            .serialize();
    };
    const std::pair<std::vector<std::uint8_t>, const char *> cases[] = {
        {edited([](auto &image, auto &) {
             image[0].op = static_cast<isa::Opcode>(0xee);
         }),
         "unknown opcode"},
        {edited([](auto &image, auto &) {
             image[firstOf(image, isa::Opcode::Cmp)].condId = 1000000;
         }),
         "condition id out of range"},
        {edited([](auto &image, auto &) {
             image[firstOf(image, isa::Opcode::IAdd)].dst = 300;
         }),
         "register operand out of range"},
        {edited([](auto &, auto &data_bytes) { data_bytes = 12344; }),
         "data segment is not a power of two"},
    };
    for (const auto &[image, detail] : cases) {
        const ArtifactError e = decodeError(image);
        EXPECT_EQ(e.kind(), ArtifactError::Kind::Malformed) << e.what();
        EXPECT_NE(std::string(e.what()).find(detail), std::string::npos)
            << e.what();
    }
}

TEST(TraceLoad, BitsTheEncoderNeverWritesAreMalformed)
{
    // Each of these would decode to the same trace under another
    // content hash: an is_fp flag of 2, bit 49 of an instruction's
    // second word, and a set bit past a stream's length (the recorder
    // leaves the rest of the last word zero).
    const BenchmarkProfile profile = profileByName("gzip");
    const TraceFile trace =
        TraceFile::record(sim::buildBinary(profile, false),
                          metaFor(profile, false), sim::coreSeed(profile),
                          5000);
    const std::vector<std::uint8_t> image = trace.serialize();
    const std::size_t is_fp_at = 24 + 8 + trace.meta().benchmark.size();
    const std::size_t word1_at = is_fp_at + 8 * 4 + 8 +
        trace.binary().progName().size() + 8 + 8 + 8;
    std::vector<std::uint8_t> is_fp = image;
    is_fp[is_fp_at] = 2;
    std::vector<std::uint8_t> word1 = image;
    word1[word1_at + 6] ^= 0x02;

    std::vector<ConditionStream> streams = trace.streams();
    const auto partial = std::find_if(
        streams.begin(), streams.end(),
        [](const ConditionStream &s) { return s.length % 64 != 0; });
    ASSERT_NE(partial, streams.end());
    partial->words.back() |= 1ull << 63;

    for (auto *bytes : {&is_fp, &word1})
        test::rehashFrame(*bytes);
    for (const auto &bad :
         {is_fp, word1,
          TraceFile(trace.meta(), trace.binary(), streams).serialize()}) {
        const ArtifactError e = decodeError(bad);
        EXPECT_EQ(e.kind(), ArtifactError::Kind::Malformed) << e.what();
    }
    EXPECT_EQ(decodeError(is_fp).offset(), is_fp_at);
    EXPECT_EQ(decodeError(word1).offset(), word1_at);
}

TEST(TraceDeath, ReplayPastRecordedHorizonPanics)
{
    const BenchmarkProfile profile = profileByName("gzip");
    const Program binary = sim::buildBinary(profile, false);
    const TraceFile trace = TraceFile::record(
        binary, metaFor(profile, false), sim::coreSeed(profile), 200);
    Emulator replay(trace.binary(), nullptr, sim::coreSeed(profile),
                    &trace);
    EXPECT_DEATH(replay.skip(50000), "exhausted");
}

TEST(TraceDeath, RecordingWhileReplayingPanics)
{
    const BenchmarkProfile profile = profileByName("gzip");
    const Program binary = sim::buildBinary(profile, false);
    const TraceFile trace = TraceFile::record(
        binary, metaFor(profile, false), sim::coreSeed(profile), 1000);
    Emulator replay(trace.binary(), nullptr, sim::coreSeed(profile),
                    &trace);
    std::vector<ConditionStream> streams(trace.streams().size());
    EXPECT_DEATH(replay.recordConditions(&streams), "replaying");
}

// ---------------------------------------------------------------------
// Sweep-level acceptance: record a sweep's traces, replay the sweep
// from them with generation disabled, and the pp.sweep.v1 JSON is
// byte-identical (modulo the host_ms scrub) — full AND sampled runs.
// ---------------------------------------------------------------------

namespace
{

driver::RunMatrix
traceMatrix()
{
    sim::SchemeConfig conv;
    conv.scheme = core::PredictionScheme::Conventional;
    sim::SchemeConfig pred;
    pred.scheme = core::PredictionScheme::PredicatePredictor;
    sampling::SamplingPolicy dense;
    dense.periodInsts = 4000;
    dense.warmupInsts = 1000;
    dense.measureInsts = 2000;

    driver::RunMatrix m;
    m.addBenchmark(program::profileByName("gzip"))
        .addBenchmark(program::profileByName("swim"))
        .ifConvert(true)
        .addScheme("conventional", conv)
        .addScheme("predicate", pred)
        .addSampling("", sampling::SamplingPolicy{})
        .addSampling("dense", dense)
        .window(5000, 20000);
    return m;
}

} // namespace

TEST(TraceSweep, RecordThenReplayIsByteIdenticalFullAndSampled)
{
    const std::string dir = makeTraceDir();
    const std::vector<driver::RunSpec> specs = traceMatrix().specs();

    // Recording sweep: live generation, one artifact per binary.
    driver::SweepOptions rec_opts;
    rec_opts.threads = 2;
    rec_opts.recordTraceDir = dir;
    driver::SweepEngine recorder(rec_opts);
    const auto live = recorder.run(specs);
    const std::string live_json =
        driver::JsonSink{recorder.counters()}.toString(specs, live);

    // Replaying sweep: same matrix, workloads from the artifacts.
    std::vector<driver::RunSpec> replay_specs = specs;
    for (auto &s : replay_specs)
        s.tracePath = dir + "/" + s.binaryKey() + ".pptrace";
    driver::SweepOptions rep_opts;
    rep_opts.threads = 2;
    driver::SweepEngine replayer(rep_opts);
    const auto replayed = replayer.run(replay_specs);
    const std::string replay_json =
        driver::JsonSink{replayer.counters()}.toString(specs, replayed);

    EXPECT_EQ(driver::scrubHostMs(live_json), driver::scrubHostMs(replay_json));
    EXPECT_EQ(driver::CsvSink{}.toString(specs, live),
              driver::CsvSink{}.toString(specs, replayed));

    // The cache counters are symmetric between the modes, and both
    // documents carry the artifact hashes.
    EXPECT_EQ(recorder.counters().tracesLoaded, 2u);
    EXPECT_EQ(recorder.counters().traceCacheHits, specs.size() - 2);
    EXPECT_EQ(replayer.counters().tracesLoaded, 2u);
    EXPECT_EQ(replayer.counters().traceCacheHits, specs.size() - 2);
    EXPECT_NE(live_json.find("\"trace_hash\":\""), std::string::npos);
    EXPECT_NE(live_json.find("\"traces_loaded\":2"), std::string::npos);
    EXPECT_NE(live_json.find("\"trace_cache_hits\":"), std::string::npos);

    // Spot-check the strongest form: every run bit-identical.
    ASSERT_EQ(live.size(), replayed.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
        EXPECT_EQ(live[i].stats.cycles, replayed[i].stats.cycles) << i;
        EXPECT_EQ(live[i].stats.committedInsts,
                  replayed[i].stats.committedInsts) << i;
        EXPECT_EQ(live[i].ipc, replayed[i].ipc) << i;
        EXPECT_EQ(live[i].mispredRatePct, replayed[i].mispredRatePct) << i;
        EXPECT_EQ(live[i].traceHash, replayed[i].traceHash) << i;
        EXPECT_FALSE(live[i].traceHash.empty()) << i;
    }
}

TEST(TraceSweep, TracelessSweepKeepsOldJsonLayout)
{
    sim::SchemeConfig conv;
    driver::RunMatrix m;
    m.addBenchmark(program::profileByName("gzip"))
        .ifConvert(true)
        .addScheme("conventional", conv)
        .window(2000, 8000);
    const auto specs = m.specs();
    driver::SweepOptions opts;
    opts.threads = 1;
    driver::SweepEngine engine(opts);
    const auto results = engine.run(specs);
    const std::string json =
        driver::JsonSink{engine.counters()}.toString(specs, results);
    // No artifacts in play: per-run trace_hash is absent, summary
    // trace counters report zero.
    EXPECT_EQ(json.find("\"trace_hash\""), std::string::npos);
    EXPECT_NE(json.find("\"traces_loaded\":0"), std::string::npos);
    EXPECT_NE(json.find("\"trace_cache_hits\":0"), std::string::npos);
    EXPECT_EQ(engine.counters().tracesLoaded, 0u);
}
