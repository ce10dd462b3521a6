/**
 * @file
 * Figure 5 reproduction: branch misprediction rates of the 148KB
 * conventional branch predictor vs the 148KB predicate predictor, on the
 * binaries compiled WITHOUT if-conversion, for the 22-benchmark suite.
 *
 * Paper result (HPCA'07 §4.2): the predicate predictor wins on all but
 * three benchmarks; average accuracy increase 1.86%. The idealized pair
 * (no alias conflicts, perfect history update; "results not shown in the
 * graph") improves accuracy consistently, by 2.24% on average, isolating
 * the early-resolved-branch benefit from the predictor's negative
 * effects (< 0.40% on average).
 */

#include <cstdio>

#include "bench_common.hh"
#include "driver/grids.hh"

int
main(int argc, char **argv)
{
    using namespace pp;
    using namespace pp::bench;

    const BenchOptions opts = parseBenchArgs(
        argc, argv, "Figure 5: mispred rate, non-if-converted suite");

    // The canonical Figure-5 columns (conventional/predicate and their
    // idealized twins) live in driver/grids.hh so this harness,
    // bench_result_cache and the benchmark ledger sweep identical cells
    // by construction. --shards N runs this same matrix across N
    // self-exec'd worker processes (bench_common.hh).
    std::vector<SchemeColumn> columns;
    for (const driver::SchemeAxis &axis : driver::fig5Schemes())
        columns.push_back(SchemeColumn{axis.name, axis.scheme});

    const auto sweep = sweepSuite(opts, program::spec2000Suite(),
                                  /*if_convert=*/false, columns);

    printMispredTable(opts, sweep,
                      "Figure 5: misprediction rate, non-if-converted");

    auto acc = [](const sim::RunResult &r) { return r.accuracyPct; };
    const double d_real = sweep.mean(1, acc) - sweep.mean(0, acc);
    const double d_ideal = sweep.mean(3, acc) - sweep.mean(2, acc);

    int exceptions = 0;
    int ideal_exceptions = 0;
    for (const auto &row : sweep.results) {
        if (row[1].mispredRatePct > row[0].mispredRatePct)
            ++exceptions;
        if (row[3].mispredRatePct > row[2].mispredRatePct)
            ++ideal_exceptions;
    }

    std::FILE *out = reportFile(opts);
    std::fprintf(out, "\npredicate accuracy delta (realistic): %+0.2f%% "
                 "(paper: +1.86%%), exceptions: %d (paper: 3)\n",
                 d_real, exceptions);
    std::fprintf(out, "predicate accuracy delta (idealized): %+0.2f%% "
                 "(paper: +2.24%%), exceptions: %d (paper: 0)\n",
                 d_ideal, ideal_exceptions);
    std::fprintf(out, "negative-effect magnitude (ideal minus real "
                 "delta): %0.2f%% (paper: < 0.40%%)\n", d_ideal - d_real);
    return 0;
}
