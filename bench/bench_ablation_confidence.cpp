/**
 * @file
 * §3.2 ablation: confidence-threshold sweep for selective predicate
 * prediction. The confidence counter gates which predicate predictions
 * may cancel if-converted instructions at rename; a wider counter means a
 * longer correct streak is required before a prediction is trusted.
 *
 * Low widths cancel aggressively (more flushes); high widths fall back to
 * CMOV more often (more wasted resources). The paper's design point uses
 * a saturating counter zeroed on any misprediction.
 *
 * Runs on the predictor-replay tier by default, where the confidence
 * question becomes coverage vs precision: what fraction of predicate
 * predictions each width marks confident, and how often a confident
 * prediction is wrong (the flush trigger). Pass --full-sim for the
 * original detailed-core sweep — IPC, flush and CMOV-fallback counts
 * are timing quantities only that tier can measure.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench_common.hh"

namespace
{

using namespace pp;
using namespace pp::bench;

constexpr unsigned kWidths[] = {1, 2, 3, 4, 5};
constexpr std::size_t kNumWidths = 5;

std::vector<program::BenchmarkProfile>
confidenceSuite()
{
    // A representative subset keeps this sweep fast; the full suite can
    // be enabled by REPRO_FULL=1 (and narrowed again with --filter).
    std::vector<program::BenchmarkProfile> suite;
    const bool full = std::getenv("REPRO_FULL") != nullptr;
    for (const auto &p : program::spec2000Suite()) {
        if (full || p.name == "gzip" || p.name == "crafty" ||
            p.name == "mcf" || p.name == "art" || p.name == "mesa" ||
            p.name == "vortex") {
            suite.push_back(p);
        }
    }
    return suite;
}

int
runReplayTier(const BenchOptions &opts)
{
    replay::ReplayMatrix matrix;
    matrix.benchmarks(confidenceSuite()).ifConvert(true);
    for (const unsigned w : kWidths) {
        sim::SchemeConfig cfg;
        cfg.scheme = core::PredictionScheme::PredicatePredictor;
        cfg.predication = core::PredicationModel::SelectivePrediction;
        cfg.confidenceBits = w;
        matrix.addConfig("conf=" + std::to_string(w), cfg);
    }
    const auto results = replaySweep(opts, matrix);

    TextTable t;
    t.setHeader({"benchmark", "conf=1 cover%", "conf=2 cover%",
                 "conf=3 cover%", "conf=4 cover%", "conf=5 cover%"});
    std::vector<double> cover_sums(kNumWidths, 0.0);
    std::vector<std::uint64_t> confident(kNumWidths, 0);
    std::vector<std::uint64_t> confident_wrong(kNumWidths, 0);
    for (const auto &r : results) {
        std::vector<double> covers;
        for (std::size_t w = 0; w < kNumWidths; ++w) {
            const replay::ReplayStats &s = r.configs[w].stats;
            const double cover = s.compares == 0 ? 0.0
                : 100.0 * static_cast<double>(s.confidentPd1) /
                    static_cast<double>(s.compares);
            covers.push_back(cover);
            cover_sums[w] += cover;
            confident[w] += s.confidentPd1;
            confident_wrong[w] += s.confidentPd1Wrong;
        }
        t.addRow(r.benchmark, covers);
    }
    const double n = static_cast<double>(results.size());
    t.addRow("AVERAGE", {cover_sums[0] / n, cover_sums[1] / n,
                         cover_sums[2] / n, cover_sums[3] / n,
                         cover_sums[4] / n});

    std::FILE *out = reportFile(opts);
    std::fprintf(out, "\n== Confidence-width ablation (selective "
                 "predication, replay tier) ==\n");
    t.print(reportStream(opts));
    std::fprintf(out, "\nconfident-and-wrong rate per width (the flush"
                 " trigger):\n");
    for (std::size_t w = 0; w < kNumWidths; ++w) {
        const double wrong_pct = confident[w] == 0 ? 0.0
            : 100.0 * static_cast<double>(confident_wrong[w]) /
                static_cast<double>(confident[w]);
        std::fprintf(out, "  conf=%u: %6.3f%% of %llu confident"
                     " predictions\n", kWidths[w], wrong_pct,
                     static_cast<unsigned long long>(confident[w]));
    }
    std::fprintf(out, "(IPC / flush / CMOV-fallback counts are timing"
                 " quantities: rerun with --full-sim)\n");
    return 0;
}

int
runFullSim(const BenchOptions &opts)
{
    std::vector<SchemeColumn> columns;
    for (const unsigned w : kWidths) {
        SchemeColumn col;
        col.name = "conf=" + std::to_string(w);
        col.cfg.scheme = core::PredictionScheme::PredicatePredictor;
        col.cfg.predication = core::PredicationModel::SelectivePrediction;
        col.cfg.confidenceBits = w;
        columns.push_back(col);
    }

    const auto sweep = sweepSuite(opts, confidenceSuite(),
                                  /*if_convert=*/true, columns);

    TextTable t;
    t.setHeader({"benchmark", "conf=1 IPC", "conf=2 IPC", "conf=3 IPC",
                 "conf=4 IPC", "conf=5 IPC"});

    std::vector<double> sums(kNumWidths, 0.0);
    std::vector<std::uint64_t> flushes(kNumWidths, 0);
    std::vector<std::uint64_t> fallbacks(kNumWidths, 0);
    for (std::size_t b = 0; b < sweep.benchmarks.size(); ++b) {
        std::vector<double> ipcs;
        for (std::size_t w = 0; w < kNumWidths; ++w) {
            const auto &r = sweep.results[b][w];
            ipcs.push_back(r.ipc);
            sums[w] += r.ipc;
            flushes[w] += r.stats.predicateFlushes;
            fallbacks[w] += r.stats.cmovFallbacks;
        }
        t.addRow(sweep.benchmarks[b], ipcs, 3);
    }
    const double n = static_cast<double>(sweep.benchmarks.size());
    t.addRow("AVERAGE", {sums[0] / n, sums[1] / n, sums[2] / n,
                         sums[3] / n, sums[4] / n}, 3);

    std::FILE *out = reportFile(opts);
    std::fprintf(out, "\n== Confidence-width ablation (selective "
                 "predication, if-converted code) ==\n");
    t.print(reportStream(opts));
    std::fprintf(out, "\npredicate flushes per width:");
    for (std::size_t w = 0; w < kNumWidths; ++w)
        std::fprintf(out, "  %u:%llu", kWidths[w],
                     static_cast<unsigned long long>(flushes[w]));
    std::fprintf(out, "\ncmov fallbacks per width:   ");
    for (std::size_t w = 0; w < kNumWidths; ++w)
        std::fprintf(out, "  %u:%llu", kWidths[w],
                     static_cast<unsigned long long>(fallbacks[w]));
    std::fprintf(out, "\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool full_sim = stripFlag(argc, argv, "--full-sim");
    BenchOptions opts = parseBenchArgs(
        argc, argv,
        "confidence-width ablation (REPRO_FULL=1 for the full suite;"
        " replay tier by default, --full-sim for the detailed core)");
    if (full_sim) // --shards workers must re-exec into the same tier
        opts.forwardArgs.push_back("--full-sim");
    return full_sim ? runFullSim(opts) : runReplayTier(opts);
}
