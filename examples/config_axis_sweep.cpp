/**
 * @file
 * Config-axis study: ROB/IQ/width scaling curves under sampled
 * simulation — the driver's core-config override axis (seeded by the
 * ROADMAP "config-axis studies" item).
 *
 * One RunMatrix sweeps the full if-converted suite (the SPEC-like
 * profiles plus the ifcmax stress profile) through three machine sizes
 * (half / Table-1 / double: fetch-rename-commit width, ROB, issue
 * queues, load-store queues scaled together) crossed with full
 * detailed simulation and the production SMARTS sampling policy.
 * Every cell of a benchmark shares ONE generated binary and ONE
 * predecoded micro-op stream from the engine's shared caches — six
 * core configurations hitting the same decoded program is exactly the
 * reuse the decoded-program cache exists for, and the printed cache
 * counters (also in the pp.sweep.v1 JSON summary) show it.
 *
 * With --record-traces DIR the sweep additionally captures one trace
 * artifact per benchmark; with --trace-dir DIR it replays those
 * artifacts instead of regenerating — a config study over a frozen
 * workload, byte-identical to the recording run (the trace layer's
 * whole point: config axes never touch the functional stream).
 *
 *   config_axis_sweep [--json PATH] [--csv PATH] [--threads N] ...
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/table.hh"
#include "driver/result_sink.hh"
#include "driver/run_matrix.hh"
#include "driver/sweep_engine.hh"
#include "sampling/sampling_policy.hh"
#include "sim/simulator.hh"

int
main(int argc, char **argv)
{
    using namespace pp;

    bench::BenchOptions opts = bench::parseBenchArgs(
        argc, argv,
        "ROB/IQ/width scaling curves, full vs sampled (config-override "
        "axis demo)");
    // The matrix below fixes its own suite and sampling axis and runs
    // in this process: reject the shared flags it cannot honour.
    if (opts.shards > 0 || opts.workerMode)
        fatal("--shards is not supported by config_axis_sweep");
    if (opts.smartsPeriod > 0)
        fatal("--smarts: the sweep already crosses full and smarts()");
    if (opts.stress)
        fatal("--stress: the suite already includes ifcmax");

    // Machine sizes: window resources scaled together so the curve
    // isolates "how much ILP the window can expose", Table 1 centered.
    auto scaled = [](double f) {
        core::CoreConfig c;
        c.fetchWidth = static_cast<unsigned>(c.fetchWidth * f);
        c.renameWidth = static_cast<unsigned>(c.renameWidth * f);
        c.commitWidth = static_cast<unsigned>(c.commitWidth * f);
        c.robEntries = static_cast<unsigned>(c.robEntries * f);
        c.intIqEntries = static_cast<unsigned>(c.intIqEntries * f);
        c.fpIqEntries = static_cast<unsigned>(c.fpIqEntries * f);
        c.brIqEntries = static_cast<unsigned>(c.brIqEntries * f);
        c.lqEntries = static_cast<unsigned>(c.lqEntries * f);
        c.sqEntries = static_cast<unsigned>(c.sqEntries * f);
        return c;
    };

    sim::SchemeConfig selective;
    selective.scheme = core::PredictionScheme::PredicatePredictor;
    selective.predication = core::PredicationModel::SelectivePrediction;

    driver::RunMatrix matrix;
    for (const auto &p : program::spec2000Suite())
        matrix.addBenchmark(p);
    matrix.addBenchmark(program::profileByName("ifcmax"))
        .ifConvert(true)
        .window(opts.warmup, opts.measure)
        .filterBenchmarks(opts.filter);
    matrix.addScheme("selective", selective);
    matrix.addConfig("half", scaled(0.5));
    matrix.addConfig("", core::CoreConfig{});     // Table 1
    matrix.addConfig("double", scaled(2.0));
    matrix.addSampling("", sampling::SamplingPolicy{});
    matrix.addSampling("smarts", sampling::SamplingPolicy::smarts());

    std::vector<driver::RunSpec> specs = matrix.specs();
    driver::applyTraceDir(specs, opts.traceDir);
    driver::SweepOptions sweep_opts;
    sweep_opts.threads = opts.threads;
    sweep_opts.progress = opts.progress;
    sweep_opts.recordTraceDir = opts.recordTraceDir;
    sweep_opts.checkpointDir = opts.checkpointDir;
    sweep_opts.resultCacheDir = opts.resultCacheDir;
    driver::SweepEngine engine(sweep_opts);
    bench::beginTraceEvents(opts);
    const std::vector<sim::RunResult> results = engine.run(specs);
    bench::endTraceEvents(opts);

    bench::writeSinks(opts, specs, results, &engine.counters());
    bench::writeMetricsSnapshot(opts);

    std::FILE *report = bench::reportFile(opts);
    TextTable t;
    t.setHeader({"cell", "IPC", "mispred%", "detail Minsts"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        t.addRow(specs[i].label(),
                 {results[i].ipc, results[i].mispredRatePct,
                  static_cast<double>(results[i].detailedInsts) / 1e6});
    }
    std::fprintf(report, "\n== window scaling, full vs sampled ==\n");
    t.print(bench::reportStream(opts));

    const driver::SweepCounters &c = engine.counters();
    std::fprintf(report,
                 "\nshared caches: %llu binaries, %llu decoded programs, "
                 "%llu decoded-cache hits, %llu traces, %llu trace-cache "
                 "hits, %llu checkpoint sets (%llu cache hits) across "
                 "%zu runs\n",
                 (unsigned long long)c.binariesBuilt,
                 (unsigned long long)c.decodedPrograms,
                 (unsigned long long)c.decodedCacheHits,
                 (unsigned long long)c.tracesLoaded,
                 (unsigned long long)c.traceCacheHits,
                 (unsigned long long)c.checkpointsBuilt,
                 (unsigned long long)c.checkpointCacheHits, specs.size());
    return 0;
}
