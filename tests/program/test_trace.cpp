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
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <regex>
#include <string>
#include <vector>

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

std::string
scrubHostMs(const std::string &json)
{
    static const std::regex host_ms("\"([a-z_]*host_ms)\":[-+0-9.eE]+");
    return std::regex_replace(json, host_ms, "\"$1\":0");
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
    const TraceFile loaded = TraceFile::load(path);
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
            ADD_FAILURE() << path << ": expected TraceError";
        } catch (const TraceError &e) {
            EXPECT_EQ(e.kind(), TraceError::Kind::Io) << e.what();
        }
    }
}

// ---------------------------------------------------------------------
// Malformed artifacts die loudly.
// ---------------------------------------------------------------------

TEST(TraceDeath, CorruptedHeaderIsRejected)
{
    const BenchmarkProfile profile = profileByName("gzip");
    const Program binary = sim::buildBinary(profile, false);
    std::vector<std::uint8_t> image =
        TraceFile::record(binary, metaFor(profile, false),
                          sim::coreSeed(profile), 1000)
            .serialize();
    image[0] ^= 0xff;
    EXPECT_DEATH(TraceFile::deserialize(image), "magic");
}

TEST(TraceDeath, VersionMismatchIsRejected)
{
    const BenchmarkProfile profile = profileByName("gzip");
    const Program binary = sim::buildBinary(profile, false);
    std::vector<std::uint8_t> image =
        TraceFile::record(binary, metaFor(profile, false),
                          sim::coreSeed(profile), 1000)
            .serialize();
    image[8] = 99; // version word follows the magic
    EXPECT_DEATH(TraceFile::deserialize(image), "version");
}

TEST(TraceDeath, PayloadCorruptionFailsTheContentHash)
{
    const BenchmarkProfile profile = profileByName("gzip");
    const Program binary = sim::buildBinary(profile, false);
    std::vector<std::uint8_t> image =
        TraceFile::record(binary, metaFor(profile, false),
                          sim::coreSeed(profile), 1000)
            .serialize();
    image[image.size() / 2] ^= 0x01;
    EXPECT_DEATH(TraceFile::deserialize(image), "hash");
}

TEST(TraceDeath, TruncatedImageIsRejected)
{
    const BenchmarkProfile profile = profileByName("gzip");
    const Program binary = sim::buildBinary(profile, false);
    std::vector<std::uint8_t> image =
        TraceFile::record(binary, metaFor(profile, false),
                          sim::coreSeed(profile), 1000)
            .serialize();
    image.resize(16); // magic + version survive; everything else gone
    EXPECT_DEATH(TraceFile::deserialize(image), "truncated");
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

TEST(TraceDeath, ValidateRejectsMismatchedRun)
{
    const BenchmarkProfile profile = profileByName("gzip");
    const Program binary = sim::buildBinary(profile, false);
    const TraceFile trace = TraceFile::record(
        binary, metaFor(profile, false), sim::coreSeed(profile), 1000);
    EXPECT_DEATH(trace.validate("mcf", profile.seed, false, 100),
                 "benchmark");
    EXPECT_DEATH(trace.validate(profile.name, profile.seed + 1, false, 100),
                 "seed");
    EXPECT_DEATH(trace.validate(profile.name, profile.seed, true, 100),
                 "if-conversion");
    EXPECT_DEATH(trace.validate(profile.name, profile.seed, false, 5000),
                 "shorter");
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

    EXPECT_EQ(scrubHostMs(live_json), scrubHostMs(replay_json));
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
