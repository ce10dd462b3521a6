/**
 * @file
 * §3.3 ablation: one PVT accessed through two hash functions (the paper's
 * design — the second hash inverts the MSB of the first) versus a
 * statically split PVT (the design the paper rejects because single-
 * prediction compares would waste the second half and increase aliasing).
 *
 * Expected shape: DualHash >= Split on average, with the gap growing on
 * benchmarks with many single-destination compares (loop-heavy codes).
 *
 * Runs on the predictor-replay tier by default (one committed-stream
 * pass trains both organizations side by side; src/replay/). Pass
 * --full-sim for the original detailed-core sweep — the cross-check
 * mode: both tiers must show the same dual-hash-vs-split ordering.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"

namespace
{

using namespace pp;
using namespace pp::bench;

int
runReplayTier(const BenchOptions &opts)
{
    sim::SchemeConfig dual;
    dual.scheme = core::PredictionScheme::PredicatePredictor;
    sim::SchemeConfig split;
    split.scheme = core::PredictionScheme::PredicatePredictor;
    split.splitPvt = true;

    replay::ReplayMatrix matrix;
    matrix.benchmarks(program::spec2000Suite())
        .ifConvert(true)
        .addConfig("dual-hash", dual)
        .addConfig("split-pvt", split);
    const auto results = replaySweep(opts, matrix);

    TextTable t;
    t.setHeader({"benchmark", "dual-hash miss%", "split-pvt miss%"});
    double sum_dual = 0.0;
    double sum_split = 0.0;
    for (const auto &r : results) {
        const double d = r.configs[0].stats.mispredPct();
        const double s = r.configs[1].stats.mispredPct();
        sum_dual += d;
        sum_split += s;
        t.addRow(r.benchmark, {d, s});
    }
    const double n = static_cast<double>(results.size());
    t.addRow("AVERAGE", {sum_dual / n, sum_split / n});

    std::FILE *out = reportFile(opts);
    std::fprintf(out, "\n== PVT organization ablation (if-converted code,"
                 " replay tier) ==\n");
    t.print(reportStream(opts));
    std::fprintf(out, "\ndual-hash advantage: %+0.3f%% accuracy (paper "
                 "argues the split table wastes space on single-"
                 "prediction compares)\n", (sum_split - sum_dual) / n);
    return 0;
}

int
runFullSim(const BenchOptions &opts)
{
    std::vector<SchemeColumn> columns(2);
    columns[0].name = "dual-hash";
    columns[0].cfg.scheme = core::PredictionScheme::PredicatePredictor;
    columns[1].name = "split-pvt";
    columns[1].cfg.scheme = core::PredictionScheme::PredicatePredictor;
    columns[1].cfg.splitPvt = true;

    const auto sweep = sweepSuite(opts, program::spec2000Suite(),
                                  /*if_convert=*/true, columns);

    TextTable t;
    t.setHeader({"benchmark", "dual-hash miss%", "split-pvt miss%"});

    double sum_dual = 0.0;
    double sum_split = 0.0;
    for (std::size_t b = 0; b < sweep.benchmarks.size(); ++b) {
        const auto &dual = sweep.results[b][0];
        const auto &split = sweep.results[b][1];
        sum_dual += dual.mispredRatePct;
        sum_split += split.mispredRatePct;
        t.addRow(sweep.benchmarks[b],
                 {dual.mispredRatePct, split.mispredRatePct});
    }
    const double n = static_cast<double>(sweep.benchmarks.size());
    t.addRow("AVERAGE", {sum_dual / n, sum_split / n});

    std::FILE *out = reportFile(opts);
    std::fprintf(out, "\n== PVT organization ablation (if-converted code)"
                 " ==\n");
    t.print(reportStream(opts));
    std::fprintf(out, "\ndual-hash advantage: %+0.3f%% accuracy (paper "
                 "argues the split table wastes space on single-"
                 "prediction compares)\n", (sum_split - sum_dual) / n);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool full_sim = stripFlag(argc, argv, "--full-sim");
    BenchOptions opts = parseBenchArgs(
        argc, argv,
        "PVT organization ablation (replay tier; --full-sim for the"
        " detailed-core cross-check)");
    if (full_sim) // --shards workers must re-exec into the same tier
        opts.forwardArgs.push_back("--full-sim");
    return full_sim ? runFullSim(opts) : runReplayTier(opts);
}
