/**
 * @file
 * Correctness anchors for the predictor-only replay tier (src/replay/):
 *
 *  - Reconciliation: replay stats vs the detailed core on the golden
 *    accuracy grid (sampling/accuracy_contract.hh), all four schemes.
 *    Stream geometry (committed conditional branches / compares) must
 *    match the core's committed counters exactly; mispredict rates
 *    reconcile within a documented tolerance — replay predicts in
 *    commit order with no early resolution and a program-order stale
 *    predicate window, the deliberate divergences documented in
 *    docs/replay_format.md.
 *  - Batched-vs-serial bit-identity: a cell's counters may never
 *    depend on which other configs shared its pass.
 *  - Thread-count determinism: the pp.replay.v1 document is
 *    byte-identical at 1 and 4 threads (modulo *host_ms), cold or
 *    against a partly warm result cache.
 *  - Streamed schedule: each workload's stream is freed after its last
 *    config batch, so at most about one stream per worker is resident.
 *  - Trace parity: a stream extracted from a recorded trace artifact
 *    is word-identical to one generated from the profile seed, and a
 *    sweep replaying the artifacts the engine recorded emits the
 *    recording sweep's document; a mis-keyed artifact is a typed
 *    ArtifactError.
 *  - Golden counters: non-default perceptron and PVT geometries, the
 *    no-alias growth path included, reproduce pinned counters exactly.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <iterator>

#include "driver/replay_sink.hh"
#include "driver/result_sink.hh"
#include "driver/sweep_engine.hh"
#include "obs/metrics.hh"
#include "program/trace.hh"
#include "replay/predictor_replay.hh"
#include "sampling/accuracy_contract.hh"
#include "sim/simulator.hh"

using namespace pp;

namespace
{

constexpr std::uint64_t kWarmup = sampling::kAccuracyWarmup;
constexpr std::uint64_t kMeasure = sampling::kAccuracyMeasure;

/**
 * Reconciliation tolerances, calibrated against the measured
 * golden-grid deltas (also recorded in docs/replay_format.md):
 *
 *   gzip/conventional      full 10.32%  replay 10.37%  +0.04pp
 *   gzip+ifc/conventional  full  5.25%  replay  5.63%  +0.37pp
 *   crafty+ifc/peppa       full  6.21%  replay  4.48%  -1.74pp
 *   swim+ifc/predicate     full  1.49%  replay  2.80%  +1.32pp (49% early)
 *   gzip+ifc/selective     full  3.17%  replay  4.40%  +1.23pp (39% early)
 *   ifcmax+ifc/selective   full  3.02%  replay  7.15%  +4.12pp (65% early)
 *   crafty+ifc/ideal       full  4.32%  replay  6.00%  +1.69pp (33% early)
 *   swim+ifc/sel_shadow    full  1.49%  replay  2.80%  +1.32pp (49% early)
 *
 * Conventional perceptron cells reconcile tightly — the only timing
 * difference is fetch-time speculative history vs commit-order replay.
 * PEP-PA reconciles within a wider band: replay approximates the OoO
 * staleness of its predicate selector with a program-order ROB window.
 * Predicate-predictor cells diverge one-sidedly: the core resolves
 * 33-65%% of guarded branches early against the PPRF and those can
 * never mispredict, while replay predicts every branch — measured, at
 * most ~6%% of the early-resolved population returns as extra replay
 * misses (bounded at 12%% below for drift headroom).
 */
constexpr double kConventionalBoundPp = 0.75;
constexpr double kPepPaBoundPp = 3.0;
constexpr double kPredicateFloorPp = 0.5;
constexpr double kEarlyResolvedMissShare = 0.12;

/** Window-boundary slack: the detailed core overshoots the measured
 *  region by up to a fetch group, so edge branches can differ. */
constexpr double kCountSlack = 2.0;

replay::ReplayWorkloadSpec
specFor(const program::BenchmarkProfile &profile, bool if_convert,
        std::uint64_t warmup = kWarmup, std::uint64_t measure = kMeasure)
{
    replay::ReplayWorkloadSpec s;
    s.profile = profile;
    s.ifConvert = if_convert;
    s.warmupInsts = warmup;
    s.measureInsts = measure;
    return s;
}

/** The engine's replay of @p configs over @p workloads, serially. */
std::vector<replay::ReplayWorkloadResult>
engineReplay(const std::vector<replay::ReplayWorkloadSpec> &workloads,
             const std::vector<replay::ReplayConfig> &configs)
{
    driver::SweepOptions serial;
    serial.threads = 1;
    return driver::SweepEngine(serial).runReplay(workloads, configs);
}

/** One pass of @p configs, batched, over @p stream of @p binary. */
std::vector<replay::ReplayCell>
replayPass(const program::Program &binary, const replay::ReplayStream &stream,
           const std::vector<replay::ReplayConfig> &configs)
{
    std::vector<replay::ReplayCell> cells;
    for (const replay::ReplayConfig &rc : configs)
        cells.emplace_back(rc);
    replay::PredictorReplay(binary, stream).run(cells);
    return cells;
}

void
expectStatsIdentical(const replay::ReplayStats &a,
                     const replay::ReplayStats &b)
{
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicted, b.mispredicted);
    EXPECT_EQ(a.l1Mispredicted, b.l1Mispredicted);
    EXPECT_EQ(a.mispredTaken, b.mispredTaken);
    EXPECT_EQ(a.mispredNotTaken, b.mispredNotTaken);
    EXPECT_EQ(a.brBranches, b.brBranches);
    EXPECT_EQ(a.brMispredicted, b.brMispredicted);
    EXPECT_EQ(a.callBranches, b.callBranches);
    EXPECT_EQ(a.callMispredicted, b.callMispredicted);
    EXPECT_EQ(a.retBranches, b.retBranches);
    EXPECT_EQ(a.retMispredicted, b.retMispredicted);
    EXPECT_EQ(a.compares, b.compares);
    EXPECT_EQ(a.pd1Mispredicts, b.pd1Mispredicts);
    EXPECT_EQ(a.pd2Mispredicts, b.pd2Mispredicts);
    EXPECT_EQ(a.confidentPd1, b.confidentPd1);
    EXPECT_EQ(a.confidentPd1Wrong, b.confidentPd1Wrong);
    EXPECT_EQ(a.shadowMispredicts, b.shadowMispredicts);
}

/** The multi-scheme config list the bit-identity tests batch. */
std::vector<replay::ReplayConfig>
mixedConfigs()
{
    std::vector<replay::ReplayConfig> out;
    auto add = [&](const char *name, const char *scheme_name) {
        out.push_back(replay::ReplayConfig{
            name, sampling::accuracySchemeByName(scheme_name),
            core::CoreConfig{}});
    };
    add("conventional", "conventional");
    add("peppa", "peppa");
    add("predicate", "predicate");
    add("selective", "selective");
    add("selective_shadow", "selective_shadow");
    add("ideal", "ideal");
    {
        sim::SchemeConfig split;
        split.scheme = core::PredictionScheme::PredicatePredictor;
        split.splitPvt = true;
        out.push_back(replay::ReplayConfig{"split-pvt", split,
                                           core::CoreConfig{}});
    }
    {
        sim::SchemeConfig conv;
        conv.scheme = core::PredictionScheme::Conventional;
        core::CoreConfig small;
        small.perceptron.tableEntries = 1848;
        out.push_back(replay::ReplayConfig{"perc-small", conv, small});
    }
    {
        sim::SchemeConfig pep;
        pep.scheme = core::PredictionScheme::PepPa;
        core::CoreConfig small;
        small.peppa.lhtEntries = 2048;
        small.peppa.phtBits = 17;
        out.push_back(replay::ReplayConfig{"peppa-small", pep, small});
    }
    return out;
}

} // namespace

TEST(PredictorReplay, ReconcilesWithFullSimOnGoldenGrid)
{
    for (const sampling::AccuracyCell &c : sampling::kAccuracyGrid) {
        SCOPED_TRACE(c.label());
        const auto profile = program::profileByName(c.benchmark);
        const sim::SchemeConfig scheme =
            sampling::accuracySchemeByName(c.scheme);
        const sim::RunResult full = sim::buildAndRun(
            profile, c.ifConvert, scheme, kWarmup, kMeasure);

        const replay::ReplayWorkloadResult r = engineReplay(
            {specFor(profile, c.ifConvert)},
            {replay::ReplayConfig{c.scheme, scheme, core::CoreConfig{}}})[0];
        const replay::ReplayStats &s = r.configs[0].stats;

        // Stream geometry: the replayed stream IS the committed
        // instruction stream (same generator, same seed); branch and
        // compare populations match the core's committed counters up
        // to the window-boundary overshoot.
        EXPECT_NEAR(static_cast<double>(s.condBranches),
                    static_cast<double>(
                        full.stats.committedCondBranches),
                    kCountSlack);
        if (scheme.scheme ==
            core::PredictionScheme::PredicatePredictor) {
            EXPECT_NEAR(static_cast<double>(s.compares),
                        static_cast<double>(
                            full.stats.committedCompares),
                        kCountSlack);
            EXPECT_GT(s.compares, 0u);
        }
        EXPECT_GT(s.condBranches, 0u);

        const double full_pct = full.stats.committedCondBranches == 0
            ? 0.0
            : 100.0 *
                static_cast<double>(
                    full.stats.mispredictedCondBranches) /
                static_cast<double>(full.stats.committedCondBranches);
        const double replay_pct = s.mispredPct();

        if (scheme.scheme == core::PredictionScheme::Conventional) {
            EXPECT_NEAR(replay_pct, full_pct, kConventionalBoundPp);
        } else if (scheme.scheme == core::PredictionScheme::PepPa) {
            EXPECT_NEAR(replay_pct, full_pct, kPepPaBoundPp);
        } else {
            // Predicate-predictor cells: replay cannot beat the
            // PPRF-assisted core by more than noise (the floor), and
            // its extra misses are bounded by a measured share of the
            // branches the core resolved early.
            EXPECT_GE(replay_pct, full_pct - kPredicateFloorPp)
                << "replay " << replay_pct << "% vs full " << full_pct
                << "%";
            const double extra_allowed = kEarlyResolvedMissShare *
                static_cast<double>(full.stats.earlyResolvedBranches);
            EXPECT_LE(static_cast<double>(s.mispredicted),
                      static_cast<double>(
                          full.stats.mispredictedCondBranches) +
                          extra_allowed)
                << "replay misses " << s.mispredicted << " vs full "
                << full.stats.mispredictedCondBranches
                << " + 12% of " << full.stats.earlyResolvedBranches
                << " early-resolved";
        }
        if (scheme.shadowConventional) {
            EXPECT_GT(s.shadowMispredicts, 0u);
        }
    }
}

TEST(PredictorReplay, BatchedBitIdenticalToSerial)
{
    const auto profile = program::profileByName("gzip");
    const sim::ProgramRef binary = sim::buildBinaryShared(profile, true);
    const sim::DecodedRef decoded = sim::decodeShared(binary);
    const replay::ReplayStream stream = replay::extractStream(
        *binary, profile, 10000, 40000, decoded.get());
    const std::vector<replay::ReplayConfig> configs = mixedConfigs();

    const std::vector<replay::ReplayCell> batched =
        replayPass(*binary, stream, configs);
    ASSERT_EQ(batched.size(), configs.size());

    for (std::size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE(configs[c].name);
        const std::vector<replay::ReplayCell> solo =
            replayPass(*binary, stream, {configs[c]});
        expectStatsIdentical(batched[c].stats(), solo[0].stats());
        EXPECT_EQ(batched[c].storageBytes(), solo[0].storageBytes());
    }
}

TEST(PredictorReplay, EngineDocByteIdenticalAcrossThreadCounts)
{
    replay::ReplayMatrix matrix;
    matrix.addBenchmark(program::profileByName("gzip"))
        .addBenchmark(program::profileByName("crafty"))
        .ifConvert(true)
        .window(10000, 40000);
    for (const replay::ReplayConfig &rc : mixedConfigs())
        matrix.addConfig(rc.name, rc.scheme, rc.config);

    driver::SweepOptions one;
    one.threads = 1;
    driver::SweepEngine engine_one(one);
    const std::string doc_one = driver::scrubHostMs(
        driver::replayJsonString(engine_one.runReplay(matrix)));

    driver::SweepOptions four;
    four.threads = 4;
    driver::SweepEngine engine_four(four);
    const std::string doc_four = driver::scrubHostMs(
        driver::replayJsonString(engine_four.runReplay(matrix)));

    EXPECT_EQ(doc_one, doc_four);
}

TEST(PredictorReplay, TraceStreamMatchesGeneratedStream)
{
    const auto profile = program::profileByName("crafty");
    const sim::ProgramRef binary = sim::buildBinaryShared(profile, true);
    const sim::DecodedRef decoded = sim::decodeShared(binary);

    program::TraceFile::Meta meta;
    meta.benchmark = profile.name;
    meta.isFp = profile.isFp;
    meta.ifConverted = true;
    meta.seed = profile.seed;
    const program::TraceFile trace = program::TraceFile::record(
        *binary, meta, sim::coreSeed(profile),
        kWarmup + kMeasure + program::kTraceRecordSlack,
        decoded.get());

    const replay::ReplayStream generated = replay::extractStream(
        *binary, profile, kWarmup, kMeasure, decoded.get());
    const replay::ReplayStream replayed = replay::extractStream(
        *binary, profile, kWarmup, kMeasure, decoded.get(), &trace);

    // Word-identical streams: the trace replays the exact recorded
    // condition outcomes, so every event word must match.
    EXPECT_EQ(generated.warmupEvents, replayed.warmupEvents);
    EXPECT_EQ(generated.measureEvents, replayed.measureEvents);
    EXPECT_EQ(generated.measureBranches, replayed.measureBranches);
    EXPECT_EQ(generated.measureCompares, replayed.measureCompares);
}

TEST(PredictorReplay, EngineTraceDirReplaysTheRecordingSweep)
{
    const std::string dir = ::testing::TempDir() + "pp-replay-traces-" +
        std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    replay::ReplayMatrix matrix;
    matrix.addBenchmark(program::profileByName("gzip"))
        .addBenchmark(program::profileByName("crafty"))
        .ifConvert(true)
        .window(10000, 60000);
    for (const char *name : {"conventional", "peppa", "selective"})
        matrix.addConfig(name, sampling::accuracySchemeByName(name));

    driver::SweepOptions record;
    record.threads = 2;
    record.recordTraceDir = dir;
    const std::string recorded = driver::scrubHostMs(driver::replayJsonString(
        driver::SweepEngine(record).runReplay(matrix)));

    std::vector<replay::ReplayWorkloadSpec> workloads = matrix.workloads();
    driver::applyTraceDir(workloads, dir);
    driver::SweepOptions replay_opts;
    replay_opts.threads = 2;
    driver::SweepEngine engine(replay_opts);
    const std::string replayed = driver::scrubHostMs(driver::replayJsonString(
        engine.runReplay(workloads, matrix.configs())));
    EXPECT_EQ(recorded, replayed);

    // crafty's workload pointed at gzip's artifact: a sound file of
    // another program is a typed error, not a wrong simulation.
    workloads[1].tracePath = workloads[0].tracePath;
    try {
        engine.runReplay(workloads, matrix.configs());
        ADD_FAILURE() << "expected ArtifactError";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ArtifactError::Kind::Mismatch)
            << e.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(PredictorReplay, GoldenCountersForNonDefaultGeometries)
{
    // The perceptron kernel serves every geometry below; the golden
    // core grid pins only Table 1's. Counters in ReplayStats field
    // order: condBranches, mispredicted, l1Mispredicted, mispredTaken,
    // mispredNotTaken, brBranches, brMispredicted, callBranches,
    // callMispredicted, retBranches, retMispredicted, compares,
    // pd1Mispredicts, pd2Mispredicts, confidentPd1, confidentPd1Wrong,
    // shadowMispredicts.
    std::vector<replay::ReplayConfig> configs;
    {
        sim::SchemeConfig sc;
        sc.scheme = core::PredictionScheme::Conventional;
        core::CoreConfig cc;
        cc.perceptron.tableEntries = 1848;
        cc.perceptron.globalBits = 20;
        configs.push_back({"perc1848/g20", sc, cc});
        cc = core::CoreConfig{};
        cc.perceptron.localBits = 14;
        configs.push_back({"perc3696/g30/l14", sc, cc});
    }
    {
        sim::SchemeConfig sc;
        sc.scheme = core::PredictionScheme::PredicatePredictor;
        sc.predication = core::PredicationModel::SelectivePrediction;
        sc.splitPvt = true;
        sc.confidenceBits = 2;
        core::CoreConfig cc;
        cc.predicate.tableEntries = 7392;
        configs.push_back({"pvt7392/split/c2", sc, cc});
    }
    {
        sim::SchemeConfig sc;
        sc.scheme = core::PredictionScheme::PredicatePredictor;
        sc.idealNoAlias = true;
        configs.push_back(
            {"pvt3696/dual/ideal-alias", sc, core::CoreConfig{}});
    }

    struct Golden
    {
        const char *benchmark;
        const char *config;
        std::uint64_t storageBytes;
        replay::ReplayStats stats;
    };
    const Golden golden[] = {
        {"gzip", "perc1848/g20", 63944,
         {3501, 234, 109, 30, 204, 3501, 234, 0, 0, 0, 0, 0, 0, 0, 0, 0,
          0}},
        {"gzip", "perc3696/g30/l14", 174000,
         {3501, 118, 109, 27, 91, 3501, 118, 0, 0, 0, 0, 0, 0, 0, 0, 0,
          0}},
        {"gzip", "pvt7392/split/c2", 311576,
         {3501, 155, 109, 34, 121, 3501, 155, 0, 0, 0, 0, 4535, 444, 346,
          3510, 180, 0}},
        {"gzip", "pvt3696/dual/ideal-alias", 159578,
         {3501, 155, 109, 34, 121, 3501, 155, 0, 0, 0, 0, 4535, 445, 347,
          2865, 108, 0}},
        {"crafty", "perc1848/g20", 63944,
         {3798, 243, 193, 26, 217, 3798, 243, 0, 0, 0, 0, 0, 0, 0, 0, 0,
          0}},
        {"crafty", "perc3696/g30/l14", 174000,
         {3798, 232, 193, 26, 206, 3798, 232, 0, 0, 0, 0, 0, 0, 0, 0, 0,
          0}},
        {"crafty", "pvt7392/split/c2", 311576,
         {3798, 226, 193, 21, 205, 3798, 226, 0, 0, 0, 0, 4500, 485, 306,
          3366, 234, 0}},
        {"crafty", "pvt3696/dual/ideal-alias", 159578,
         {3798, 228, 193, 23, 205, 3798, 228, 0, 0, 0, 0, 4500, 484, 307,
          2432, 191, 0}},
    };

    std::size_t g = 0;
    for (const replay::ReplayWorkloadResult &result : engineReplay(
             {specFor(program::profileByName("gzip"), true, 10000, 60000),
              specFor(program::profileByName("crafty"), true, 10000,
                      60000)},
             configs)) {
        ASSERT_EQ(result.configs.size(), configs.size());
        for (const replay::ReplayConfigResult &cell : result.configs) {
            const Golden &want = golden[g++];
            SCOPED_TRACE(std::string(want.benchmark) + "/" + want.config);
            ASSERT_EQ(result.benchmark, want.benchmark);
            ASSERT_EQ(cell.name, want.config);
            EXPECT_EQ(cell.storageBytes, want.storageBytes);
            expectStatsIdentical(cell.stats, want.stats);
        }
    }
    EXPECT_EQ(g, std::size(golden));
}

TEST(PredictorReplay, PartlyWarmSweepEvaluatesOnlyTheMissingCells)
{
    // A result cache primed with all of gzip's cells and two configs'
    // cells of every workload: the sweep batches each workload's
    // remaining configs (crafty and swim 7 of 9, gzip none, though its
    // stream is still extracted for the workload fields) and emits the
    // cold document at any thread count.
    replay::ReplayMatrix matrix;
    matrix.addBenchmark(program::profileByName("gzip"))
        .addBenchmark(program::profileByName("crafty"))
        .addBenchmark(program::profileByName("swim"))
        .ifConvert(true)
        .window(10000, 40000);
    for (const replay::ReplayConfig &rc : mixedConfigs())
        matrix.addConfig(rc.name, rc.scheme, rc.config);
    const std::vector<replay::ReplayWorkloadSpec> workloads =
        matrix.workloads();
    const std::vector<replay::ReplayConfig> &configs = matrix.configs();
    const std::string cold = driver::scrubHostMs(
        driver::replayJsonString(engineReplay(workloads, configs)));

    obs::Counter &evals = obs::metrics().counter("replay.config_evals");
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        driver::SweepOptions opts;
        opts.threads = threads;
        opts.resultCacheDir = ::testing::TempDir() + "pp-replay-warm-" +
            std::to_string(::getpid()) + "-" + std::to_string(threads);
        std::filesystem::remove_all(opts.resultCacheDir);
        driver::SweepEngine(opts).runReplay({workloads[0]}, configs);
        driver::SweepEngine(opts).runReplay(workloads,
                                            {configs[1], configs[5]});

        driver::SweepEngine engine(opts);
        const std::uint64_t evals_before = evals.value();
        EXPECT_EQ(driver::scrubHostMs(driver::replayJsonString(
                      engine.runReplay(workloads, configs))),
                  cold);
        EXPECT_EQ(engine.resultCacheUse().hits, 9u + 2u + 2u);
        EXPECT_EQ(engine.resultCacheUse().simulated, 7u + 7u);
        EXPECT_EQ(evals.value() - evals_before, 7u + 7u);
        std::filesystem::remove_all(opts.resultCacheDir);
    }
}

TEST(PredictorReplay, ResidentStreamsAreBoundedByTheWorkers)
{
    // A workload's stream is resident from its extraction to the end of
    // its last config batch; a worker extracts only when no batch is
    // queued, so at most about one stream per worker is held at once
    // (the bound checked here leaves slack). Extracting every stream
    // before the first batch would read 8.
    replay::ReplayMatrix matrix;
    for (const char *name :
         {"gzip", "swim", "crafty", "mcf", "twolf", "art", "vpr", "gcc"})
        matrix.addBenchmark(program::profileByName(name));
    matrix.ifConvert(true).window(2000, 10000);
    for (const char *name : {"conventional", "peppa", "selective"})
        matrix.addConfig(name, sampling::accuracySchemeByName(name));
    obs::Gauge &peak =
        obs::metrics().gauge("replay.streams_resident_peak");
    driver::SweepOptions opts;
    opts.threads = 2;
    opts.progress = true;
    testing::internal::CaptureStderr();
    driver::SweepEngine(opts).runReplay(matrix);
    const std::string progress = testing::internal::GetCapturedStderr();
    EXPECT_GE(peak.value(), 1.0);
    EXPECT_LE(peak.value(), 4.0);
    // One config batch per workload.
    EXPECT_NE(progress.find("sweep: 8/8 jobs (100%)"), std::string::npos)
        << progress;

    opts.threads = 1;
    driver::SweepEngine(opts).runReplay(matrix);
    EXPECT_EQ(peak.value(), 1.0);
}
