/** @file Tests for the parallel experiment driver. */

#include <gtest/gtest.h>

#include <regex>

#include "driver/result_sink.hh"
#include "driver/run_matrix.hh"
#include "driver/sweep_engine.hh"

using namespace pp;
using namespace pp::driver;

namespace
{

constexpr std::uint64_t kWarm = 10000;
constexpr std::uint64_t kRun = 40000;

/**
 * Neutralize the intentionally nondeterministic JSON fields (per-run
 * host wall time, its build/ff/window breakdown and the summary's
 * total — every key ending in "host_ms") so documents can be compared
 * byte-for-byte.
 */
std::string
scrubHostMs(const std::string &json)
{
    static const std::regex host_ms("\"([a-z_]*host_ms)\":[-+0-9.eE]+");
    return std::regex_replace(json, host_ms, "\"$1\":0");
}

RunMatrix
smallMatrix()
{
    sim::SchemeConfig conv;
    conv.scheme = core::PredictionScheme::Conventional;
    sim::SchemeConfig pred;
    pred.scheme = core::PredictionScheme::PredicatePredictor;

    RunMatrix m;
    m.addBenchmark(program::profileByName("gzip"))
        .addBenchmark(program::profileByName("crafty"))
        .addBenchmark(program::profileByName("swim"))
        .ifConvert(true)
        .addScheme("conventional", conv)
        .addScheme("predicate", pred)
        .window(kWarm, kRun);
    return m;
}

void
expectIdentical(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    // The simulation is deterministic per (binary, scheme, seed), so
    // every counter and every derived double must match bit-for-bit.
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.committedInsts, b.stats.committedInsts);
    EXPECT_EQ(a.stats.committedCondBranches,
              b.stats.committedCondBranches);
    EXPECT_EQ(a.stats.mispredictedCondBranches,
              b.stats.mispredictedCondBranches);
    EXPECT_EQ(a.stats.earlyResolvedBranches,
              b.stats.earlyResolvedBranches);
    EXPECT_EQ(a.stats.committedPredicated, b.stats.committedPredicated);
    EXPECT_EQ(a.stats.nullifiedAtRename, b.stats.nullifiedAtRename);
    EXPECT_EQ(a.stats.predicateFlushes, b.stats.predicateFlushes);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mispredRatePct, b.mispredRatePct);
    EXPECT_EQ(a.earlyResolvedPct, b.earlyResolvedPct);
}

} // namespace

TEST(RunMatrix, CartesianOrderIsDeterministic)
{
    const auto specs = smallMatrix().specs();
    ASSERT_EQ(specs.size(), 6u);
    // Benchmark-major, then scheme.
    EXPECT_EQ(specs[0].label(), "gzip+ifc/conventional");
    EXPECT_EQ(specs[1].label(), "gzip+ifc/predicate");
    EXPECT_EQ(specs[2].label(), "crafty+ifc/conventional");
    EXPECT_EQ(specs[5].label(), "swim+ifc/predicate");
    EXPECT_EQ(specs[0].warmupInsts, kWarm);
    EXPECT_EQ(specs[0].measureInsts, kRun);
}

TEST(RunMatrix, IfConvertBothAddsAxis)
{
    auto m = smallMatrix();
    m.ifConvertBoth();
    const auto specs = m.specs();
    ASSERT_EQ(specs.size(), 12u);
    EXPECT_EQ(specs[0].label(), "gzip/conventional");
    EXPECT_EQ(specs[2].label(), "gzip+ifc/conventional");
    EXPECT_FALSE(specs[0].ifConvert);
    EXPECT_TRUE(specs[2].ifConvert);
}

TEST(RunMatrix, FilterBenchmarksSelectsSubset)
{
    auto m = smallMatrix();
    m.filterBenchmarks("^(gzip|swim)$");
    const auto specs = m.specs();
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].profile.name, "gzip");
    EXPECT_EQ(specs[2].profile.name, "swim");
}

TEST(RunMatrix, LabelFilterSelectsCells)
{
    auto m = smallMatrix();
    m.filter("predicate");
    const auto specs = m.specs();
    ASSERT_EQ(specs.size(), 3u);
    for (const auto &s : specs)
        EXPECT_EQ(s.schemeName, "predicate");
}

TEST(RunMatrix, ConfigOverrideAxisMultiplies)
{
    auto m = smallMatrix();
    core::CoreConfig tiny;
    tiny.robEntries = 32;
    m.addConfig("default", core::CoreConfig{});
    m.addConfig("rob32", tiny);
    const auto specs = m.specs();
    ASSERT_EQ(specs.size(), 12u);
    EXPECT_EQ(specs[0].label(), "gzip+ifc/conventional/default");
    EXPECT_EQ(specs[1].label(), "gzip+ifc/conventional/rob32");
    EXPECT_EQ(specs[1].config.robEntries, 32u);
}

TEST(RunMatrix, SamplingAxisMultipliesAndLabels)
{
    auto m = smallMatrix();
    m.addSampling("", sampling::SamplingPolicy{});
    m.addSampling("smarts", sampling::SamplingPolicy::smarts());
    const auto specs = m.specs();
    ASSERT_EQ(specs.size(), 12u);
    EXPECT_EQ(specs[0].label(), "gzip+ifc/conventional");
    EXPECT_EQ(specs[1].label(), "gzip+ifc/conventional/smarts");
    EXPECT_FALSE(specs[0].sampling.enabled());
    EXPECT_TRUE(specs[1].sampling.enabled());
    // The production policy flows through the axis untouched.
    EXPECT_EQ(specs[1].sampling.periodInsts,
              sampling::SamplingPolicy::smarts().periodInsts);
}

TEST(SweepEngine, SamplingAxisRunsFullAndSampledSideBySide)
{
    sim::SchemeConfig conv;
    conv.scheme = core::PredictionScheme::Conventional;
    sampling::SamplingPolicy dense;
    dense.periodInsts = 3000;
    dense.warmupInsts = 1000;
    dense.measureInsts = 1000;

    RunMatrix m;
    m.addBenchmark(program::profileByName("gzip"))
        .ifConvert(true)
        .addScheme("conventional", conv)
        .addSampling("", sampling::SamplingPolicy{})
        .addSampling("dense", dense)
        .window(5000, 20000);

    SweepOptions opts;
    opts.threads = 2;
    const auto specs = m.specs();
    const auto results = SweepEngine(opts).run(specs);
    ASSERT_EQ(results.size(), 2u);

    const sim::RunResult &full = results[0];
    const sim::RunResult &sam = results[1];
    EXPECT_FALSE(full.sampled);
    EXPECT_EQ(full.measuredInsts, 0u);
    EXPECT_EQ(full.ipcErrorBound, 0.0);
    EXPECT_GE(full.detailedInsts, 25000u);
    EXPECT_TRUE(sam.sampled);
    EXPECT_GT(sam.measuredInsts, 0u);
    EXPECT_LT(sam.measuredInsts, full.stats.committedInsts);
    EXPECT_GT(sam.ipcErrorBound, 0.0);
    // The sampled estimate extrapolates to full-region magnitudes.
    EXPECT_NEAR(static_cast<double>(sam.stats.committedInsts), 20000.0,
                16.0);

    // JSON: per-run annotations plus the sweep-level summary block.
    const std::string json = JsonSink{}.toString(specs, results);
    EXPECT_NE(json.find("\"sampled\":false"), std::string::npos);
    EXPECT_NE(json.find("\"sampled\":true"), std::string::npos);
    EXPECT_NE(json.find("\"sampling\":\"dense\""), std::string::npos);
    EXPECT_NE(json.find("\"measured_insts\":"), std::string::npos);
    EXPECT_NE(json.find("\"ipc_error_bound\":"), std::string::npos);
    EXPECT_NE(json.find("\"summary\":{\"runs\":2,\"sampled_runs\":1,"
                        "\"total_detailed_insts\":"),
              std::string::npos);
    EXPECT_NE(json.find("\"total_host_ms\":"), std::string::npos);

    // Host-time breakdown: every run reports the build/fast-forward/
    // detailed-window split; all three fields are scrubbable wall-times.
    EXPECT_NE(json.find("\"build_host_ms\":"), std::string::npos);
    EXPECT_NE(json.find("\"ff_host_ms\":"), std::string::npos);
    EXPECT_NE(json.find("\"window_host_ms\":"), std::string::npos);
    // The widened scrub pattern zeroes every breakdown field.
    const std::string scrubbed = scrubHostMs(json);
    EXPECT_NE(scrubbed.find("\"build_host_ms\":0"), std::string::npos);
    EXPECT_NE(scrubbed.find("\"ff_host_ms\":0"), std::string::npos);
    EXPECT_NE(scrubbed.find("\"window_host_ms\":0"), std::string::npos);
    EXPECT_NE(scrubbed.find("\"total_host_ms\":0"), std::string::npos);
    EXPECT_GT(full.buildHostMs, 0.0);
    EXPECT_EQ(full.ffHostMs, 0.0);  // a full run never fast-forwards
    EXPECT_GT(full.windowHostMs, 0.0);
    EXPECT_GT(sam.ffHostMs, 0.0);
    EXPECT_GT(sam.windowHostMs, 0.0);
    // Both runs share one cached binary build, so the same build cost.
    EXPECT_EQ(full.buildHostMs, sam.buildHostMs);

    // CSV: the sampling columns, empty on the full run's row and
    // policy-labeled on the sampled one.
    const std::string csv = CsvSink{}.toString(specs, results);
    EXPECT_NE(csv.find(",sampling,sampled,measured_insts,"
                       "ipc_error_bound"),
              std::string::npos);
    EXPECT_NE(csv.find(",,,,"), std::string::npos);     // full row
    EXPECT_NE(csv.find(",dense,1,"), std::string::npos);// sampled row
}

TEST(SweepEngine, SampledSweepIsThreadCountInvariant)
{
    sim::SchemeConfig conv;
    conv.scheme = core::PredictionScheme::Conventional;
    sampling::SamplingPolicy dense;
    dense.periodInsts = 4000;
    dense.warmupInsts = 1000;
    dense.measureInsts = 2000;

    RunMatrix m;
    m.addBenchmark(program::profileByName("gzip"))
        .addBenchmark(program::profileByName("swim"))
        .ifConvert(true)
        .addScheme("conventional", conv)
        .addSampling("dense", dense)
        .window(5000, 20000);

    SweepOptions serial;
    serial.threads = 1;
    SweepOptions parallel;
    parallel.threads = 4;
    const auto specs = m.specs();
    SweepEngine eng1(serial);
    SweepEngine eng4(parallel);
    const auto r1 = eng1.run(specs);
    const auto r4 = eng4.run(specs);
    ASSERT_EQ(r1.size(), r4.size());
    for (std::size_t i = 0; i < r1.size(); ++i)
        expectIdentical(r1[i], r4[i]);
    EXPECT_EQ(scrubHostMs(JsonSink{eng1.counters()}.toString(specs, r1)),
              scrubHostMs(JsonSink{eng4.counters()}.toString(specs, r4)));
    EXPECT_EQ(CsvSink{}.toString(specs, r1),
              CsvSink{}.toString(specs, r4));

    // The dense policy has a 1000-inst gap, so both sweeps route
    // through the checkpoint tier: one set per workload, no sharing
    // across distinct benchmarks — and the counters are identical on
    // any thread count (a pure function of the spec list).
    EXPECT_EQ(eng1.counters().checkpointsBuilt, 2u);
    EXPECT_EQ(eng1.counters().checkpointCacheHits, 0u);
    EXPECT_EQ(eng4.counters().checkpointsBuilt, 2u);
    EXPECT_EQ(eng4.counters().checkpointCacheHits, 0u);
    EXPECT_EQ(sweepCountersFor(specs, false).checkpointsBuilt, 2u);

    // The summary surfaces them right after the trace counters.
    const std::string json =
        JsonSink{eng4.counters()}.toString(specs, r4);
    EXPECT_NE(json.find("\"trace_cache_hits\":0,"
                        "\"checkpoints_built\":2,"
                        "\"checkpoint_cache_hits\":0"),
              std::string::npos);
}

TEST(SweepEngine, MultiThreadedMatchesSingleThreaded)
{
    const auto m = smallMatrix();

    SweepOptions serial;
    serial.threads = 1;
    SweepEngine eng1(serial);
    const auto r1 = eng1.run(m);

    SweepOptions parallel;
    parallel.threads = 4;
    SweepEngine eng4(parallel);
    const auto r4 = eng4.run(m);

    ASSERT_EQ(r1.size(), r4.size());
    for (std::size_t i = 0; i < r1.size(); ++i)
        expectIdentical(r1[i], r4[i]);

    // And the serialized artifacts are byte-identical once the wall-time
    // perf sample (host_ms) is scrubbed; the CSV carries no such field.
    const auto specs = m.specs();
    EXPECT_EQ(scrubHostMs(JsonSink{}.toString(specs, r1)),
              scrubHostMs(JsonSink{}.toString(specs, r4)));
    EXPECT_EQ(CsvSink{}.toString(specs, r1),
              CsvSink{}.toString(specs, r4));
}

TEST(SweepEngine, BinaryCacheBuildsEachBinaryOnce)
{
    auto m = smallMatrix();
    m.ifConvertBoth();    // 3 benchmarks x {plain, ifc} = 6 binaries
    SweepOptions opts;
    opts.threads = 2;
    SweepEngine engine(opts);
    const auto results = engine.run(m);
    EXPECT_EQ(results.size(), 12u);
    EXPECT_EQ(engine.counters().binariesBuilt, 6u);
    EXPECT_EQ(engine.threadsUsed(), 2u);

    // The decoded-program cache is keyed like the binary cache: one
    // decode per binary, every other run of the cell a hit.
    EXPECT_EQ(engine.counters().decodedPrograms, 6u);
    EXPECT_EQ(engine.counters().decodedCacheHits, 6u);
    // No sampled cells: the checkpoint tier is never touched.
    EXPECT_EQ(engine.counters().checkpointsBuilt, 0u);
    EXPECT_EQ(engine.counters().checkpointCacheHits, 0u);

    // With counters attached, the JSON summary surfaces them.
    const std::string json =
        JsonSink{engine.counters()}.toString(m.specs(), results);
    EXPECT_NE(json.find("\"binaries_built\":6"), std::string::npos);
    EXPECT_NE(json.find("\"decoded_programs\":6"), std::string::npos);
    EXPECT_NE(json.find("\"decoded_cache_hits\":6"), std::string::npos);

    // Without counters the summary omits them (harnesses that sink
    // results without an engine keep their old byte layout).
    const std::string plain = JsonSink{}.toString(m.specs(), results);
    EXPECT_EQ(plain.find("decoded_cache_hits"), std::string::npos);
}

TEST(SweepEngine, ReplaySweepReportsProgress)
{
    replay::ReplayMatrix m;
    m.addBenchmark(program::profileByName("gzip"))
        .addBenchmark(program::profileByName("crafty"))
        .ifConvert(true)
        .window(2000, 10000);
    sim::SchemeConfig pred;
    pred.scheme = core::PredictionScheme::PredicatePredictor;
    m.addConfig("predicate", pred);
    SweepOptions opts;
    opts.threads = 2;
    opts.progress = true;
    testing::internal::CaptureStderr();
    SweepEngine(opts).runReplay(m);
    const std::string err = testing::internal::GetCapturedStderr();
    // One config batch per workload.
    EXPECT_NE(err.find("sweep: 2/2 jobs (100%)"), std::string::npos) << err;
}

TEST(SweepEngine, ResultsAlignWithSpecs)
{
    const auto m = smallMatrix();
    const auto specs = m.specs();
    SweepOptions opts;
    opts.threads = 3;
    const auto results = SweepEngine(opts).run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(results[i].benchmark, specs[i].profile.name);
        EXPECT_GT(results[i].stats.committedInsts, 0u);
        EXPECT_GT(results[i].ipc, 0.0);
    }
}

TEST(ResultSink, JsonContainsSchemaAndRunFields)
{
    const auto m = smallMatrix();
    const auto specs = m.specs();
    SweepOptions opts;
    opts.threads = 2;
    const auto results = SweepEngine(opts).run(specs);
    const std::string json = JsonSink{}.toString(specs, results);
    EXPECT_NE(json.find("\"schema\":\"pp.sweep.v1\""), std::string::npos);
    EXPECT_NE(json.find("\"benchmark\":\"gzip\""), std::string::npos);
    EXPECT_NE(json.find("\"scheme\":\"predicate\""), std::string::npos);
    EXPECT_NE(json.find("\"if_converted\":true"), std::string::npos);
    EXPECT_NE(json.find("\"ipc\":"), std::string::npos);
    EXPECT_NE(json.find("\"mispred_pct\":"), std::string::npos);
    EXPECT_NE(json.find("\"host_ms\":"), std::string::npos);
    EXPECT_NE(json.find("\"counters\":{\"cycles\":"), std::string::npos);

    const std::string csv = CsvSink{}.toString(specs, results);
    EXPECT_EQ(csv.compare(0, 9, "benchmark"), 0);
    // Header + one line per run.
    std::size_t lines = 0;
    for (const char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 1u + specs.size());
}

TEST(ResultSink, AggregateSplitsSuites)
{
    // Hand-built specs/results: two schemes over one int + one fp
    // benchmark.
    std::vector<RunSpec> specs;
    std::vector<sim::RunResult> results;
    const char *schemes[] = {"a", "b"};
    const char *benches[] = {"gzip", "swim"};
    double ipc = 1.0;
    for (const char *b : benches) {
        for (const char *s : schemes) {
            RunSpec spec;
            spec.profile = program::profileByName(b);
            spec.schemeName = s;
            specs.push_back(spec);
            sim::RunResult r;
            r.benchmark = b;
            r.ipc = ipc;
            r.mispredRatePct = 4.0;
            r.accuracyPct = 96.0;
            results.push_back(r);
            ipc += 1.0;
        }
    }

    const auto aggs = aggregate(specs, results);
    // 2 schemes x {int, fp, all}.
    ASSERT_EQ(aggs.size(), 6u);
    EXPECT_EQ(aggs[0].scheme, "a");
    EXPECT_EQ(aggs[0].suite, "int");
    EXPECT_EQ(aggs[0].runs, 1u);
    EXPECT_DOUBLE_EQ(aggs[0].meanIpc, 1.0);   // gzip under "a"
    EXPECT_EQ(aggs[2].suite, "all");
    EXPECT_DOUBLE_EQ(aggs[2].meanIpc, 2.0);   // (1 + 3) / 2
    EXPECT_EQ(aggs[5].scheme, "b");
    EXPECT_EQ(aggs[5].suite, "all");
    EXPECT_DOUBLE_EQ(aggs[5].meanIpc, 3.0);   // (2 + 4) / 2
    EXPECT_DOUBLE_EQ(aggs[5].meanMispredPct, 4.0);
}

TEST(StressProfiles, PresentAndDistinct)
{
    const auto stress = program::stressSuite();
    ASSERT_EQ(stress.size(), 2u);
    EXPECT_EQ(stress[0].name, "ifcmax");
    EXPECT_EQ(stress[1].name, "aliasstorm");
    // ifcmax: the compiler converts every profiled region.
    EXPECT_EQ(stress[0].ifcMispredThreshold, 0.0);
    EXPECT_GT(stress[0].ifcMaxBlockLen, 24);
    // aliasstorm: static footprint far beyond the SPEC-like profiles.
    EXPECT_GE(stress[1].numFunctions * stress[1].regionsPerFunction,
              40 * 40);
    // Both resolvable by name through the extended suite.
    EXPECT_EQ(program::profileByName("ifcmax").name, "ifcmax");
    EXPECT_EQ(program::profileByName("aliasstorm").name, "aliasstorm");
    EXPECT_EQ(program::extendedSuite().size(),
              program::spec2000Suite().size() + 2);
}

TEST(StressProfiles, SweepThroughDriver)
{
    sim::SchemeConfig sel;
    sel.scheme = core::PredictionScheme::PredicatePredictor;
    sel.predication = core::PredicationModel::SelectivePrediction;

    RunMatrix m;
    m.benchmarks(program::stressSuite())
        .ifConvert(true)
        .addScheme("selective", sel)
        .window(5000, 20000);
    SweepOptions opts;
    opts.threads = 2;
    const auto results = SweepEngine(opts).run(m);
    ASSERT_EQ(results.size(), 2u);
    // ifcmax must actually exercise predication heavily.
    EXPECT_GT(results[0].stats.committedPredicated, 0u);
    for (const auto &r : results)
        EXPECT_GT(r.ipc, 0.1);
}
