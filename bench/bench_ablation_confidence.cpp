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
 * Measured on the if-converted suite at the default window (150k+1M):
 * from width 1 to width 5, suite-mean IPC rises from 3.454 to 3.668,
 * predicate flushes fall from 32,632 to 365 and CMOV fallbacks rise
 * from 224,528 to 760,046.
 */

#include <cstdio>

#include "bench_common.hh"

namespace
{

constexpr unsigned kWidths[] = {1, 2, 3, 4, 5};
constexpr std::size_t kNumWidths = 5;

} // namespace

int
main(int argc, char **argv)
{
    using namespace pp;
    using namespace pp::bench;

    const BenchOptions opts = parseBenchArgs(
        argc, argv, "confidence-width ablation (selective predication)");

    std::vector<SchemeColumn> columns;
    for (const unsigned w : kWidths) {
        SchemeColumn col;
        col.name = "conf=" + std::to_string(w);
        col.cfg.scheme = core::PredictionScheme::PredicatePredictor;
        col.cfg.predication = core::PredicationModel::SelectivePrediction;
        col.cfg.confidenceBits = w;
        columns.push_back(col);
    }

    const auto sweep = sweepSuite(opts, program::spec2000Suite(),
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
