/**
 * @file
 * Sampled-simulation accuracy and speedup benchmark, the evidence
 * behind BENCH_sampling.json (`pp.bench.sampling.v1`).
 *
 * Two parts:
 *
 *  - Accuracy grid: the 8-cell golden grid of
 *    tests/core/test_golden_stats.cpp (benchmark × if-conversion ×
 *    scheme), full simulation vs the dense sampling policy at the
 *    golden window. Reports IPC error (%) and misprediction-rate error
 *    (absolute pp) per cell; the contract is <2% / <0.5pp.
 *
 *  - Speedup: the ifcmax stress profile on a paper-scale region, full
 *    simulation vs the production SamplingPolicy::smarts() policy,
 *    best-of-`--repeat` wall times. The contract is >=5x end-to-end.
 *
 *  - Checkpoint-parallel (--parallel-windows): the same ifcmax region
 *    swept over four scheme cells three ways — standalone serial runs
 *    of the checkpoint tier (sampledRunCheckpointed: each cell builds
 *    and consumes its own window-checkpoint set), one SweepEngine pass
 *    fanning the detailed windows across the thread pool (one shared
 *    functional pass for all cells), and a second engine pass served
 *    from the on-disk checkpoint cache. The engine results must match
 *    the serial runs bit-for-bit (the tier's identity contract). The
 *    >= kCheckpointParallelSpeedupBound gate is enforced when the pool
 *    has >= 2 workers (any CI runner); on a single-hardware-thread
 *    host only the build-sharing win is measurable, so the gate there
 *    is speedup > 1x and the JSON records the bound as unenforced.
 *
 *    bench_sampling_accuracy [--json PATH] [--check] [--repeat N]
 *                            [--speedup-insts N] [--skip-speedup]
 *                            [--parallel-windows] [--checkpoint-dir D]
 *
 * --check exits non-zero when any accuracy cell or the speedup bound
 * fails — the CI release-perf job runs it as a regression gate.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/table.hh"
#include "driver/result_sink.hh"
#include "driver/run_matrix.hh"
#include "driver/sweep_engine.hh"
#include "sampling/accuracy_contract.hh"
#include "sampling/sampled_simulator.hh"
#include "sampling/window_checkpoint.hh"
#include "sim/simulator.hh"

using namespace pp;
using sampling::AccuracyCell;
using sampling::kAccuracyGrid;

namespace
{

constexpr std::uint64_t kGridWarmup = sampling::kAccuracyWarmup;
constexpr std::uint64_t kGridMeasure = sampling::kAccuracyMeasure;
constexpr double kIpcBoundPct = sampling::kAccuracyIpcBoundPct;
constexpr double kMispredBoundPp = sampling::kAccuracyMispredBoundPp;
constexpr double kSpeedupBound = sampling::kSampledSpeedupBound;
constexpr double kCiWarnPct = sampling::kSampledCiWarnPct;

sim::SchemeConfig
schemeByName(const std::string &name)
{
    return sampling::accuracySchemeByName(name);
}

sampling::SamplingPolicy
densePolicy()
{
    return sampling::accuracyDensePolicy();
}

struct CellResult
{
    AccuracyCell cell;
    double fullIpc = 0.0;
    double sampledIpc = 0.0;
    double ipcErrPct = 0.0;
    double fullMispredPct = 0.0;
    double sampledMispredPct = 0.0;
    double mispredErrPp = 0.0;
    std::uint64_t measuredInsts = 0;
    std::uint64_t windows = 0;
    bool pass = false;
};

struct SpeedupResult
{
    std::uint64_t regionInsts = 0;
    std::uint64_t warmupInsts = 0;
    double fullMs = 0.0;     ///< best-of-repeats
    double sampledMs = 0.0;  ///< best-of-repeats
    double speedup = 0.0;
    double fullIpc = 0.0;
    double sampledIpc = 0.0;
    double ipcErrPct = 0.0;
    double mispredErrPp = 0.0;
    double ipcCiPct = 0.0;
    std::uint64_t detailedInsts = 0;
    std::uint64_t fastForwardInsts = 0;
    std::uint64_t windows = 0;
    bool pass = false;
    bool ciWarn = false; ///< CI width above kCiWarnPct (warn, not fail)
};

/** The four scheme cells the checkpoint-parallel comparison sweeps. */
const char *const kParallelSchemes[] = {"conventional", "peppa",
                                        "predicate", "selective"};

struct ParallelWindowsResult
{
    std::uint64_t regionInsts = 0;
    std::uint64_t warmupInsts = 0;
    double serialMs = 0.0;    ///< sum of standalone serial sampled runs
    double parallelMs = 0.0;  ///< one engine pass, windows fanned out
    double cachedMs = 0.0;    ///< second engine pass, disk-cached sets
    double speedup = 0.0;
    double cachedSpeedup = 0.0;
    unsigned threads = 0;
    std::uint64_t schemes = 0;
    std::uint64_t windowsPerCell = 0;
    std::uint64_t checkpointsBuilt = 0;
    std::uint64_t checkpointCacheHits = 0;
    bool identical = false;   ///< engine stats == serial stats, bitwise
    bool boundEnforced = false; ///< pool had >= 2 workers
    bool pass = false;
};

CellResult
runCell(const AccuracyCell &c)
{
    const auto profile = program::profileByName(c.benchmark);
    const sim::ProgramRef binary =
        sim::buildBinaryShared(profile, c.ifConvert);
    const sim::SchemeConfig scheme = schemeByName(c.scheme);

    const sim::RunResult full = sim::run(*binary, profile, scheme,
                                         kGridWarmup, kGridMeasure);
    const sampling::SampledRun sam = sampling::sampledRunDetailed(
        *binary, profile, scheme, core::CoreConfig{}, kGridWarmup,
        kGridMeasure, densePolicy());

    CellResult r;
    r.cell = c;
    r.fullIpc = full.ipc;
    r.sampledIpc = sam.result.ipc;
    r.ipcErrPct = 100.0 * (sam.result.ipc - full.ipc) / full.ipc;
    r.fullMispredPct = full.mispredRatePct;
    r.sampledMispredPct = sam.result.mispredRatePct;
    r.mispredErrPp = sam.result.mispredRatePct - full.mispredRatePct;
    r.measuredInsts = sam.result.measuredInsts;
    r.windows = sam.windows;
    r.pass = std::abs(r.ipcErrPct) < kIpcBoundPct &&
        std::abs(r.mispredErrPp) < kMispredBoundPp;
    return r;
}

SpeedupResult
runSpeedup(std::uint64_t region, unsigned repeats)
{
    const auto profile = program::profileByName("ifcmax");
    const sim::ProgramRef binary = sim::buildBinaryShared(profile, true);
    const sim::SchemeConfig scheme = schemeByName("selective");
    const std::uint64_t warmup = 20000;
    const sampling::SamplingPolicy policy =
        sampling::SamplingPolicy::smarts();

    policy.validateForRegion(region);

    SpeedupResult r;
    r.regionInsts = region;
    r.warmupInsts = warmup;

    sim::RunResult full;
    sampling::SampledRun sam;
    for (unsigned i = 0; i < repeats; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        full = sim::run(*binary, profile, scheme, warmup, region);
        const auto t1 = std::chrono::steady_clock::now();
        sam = sampling::sampledRunDetailed(*binary, profile, scheme,
                                           core::CoreConfig{}, warmup,
                                           region, policy);
        const auto t2 = std::chrono::steady_clock::now();
        const double f_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        const double s_ms =
            std::chrono::duration<double, std::milli>(t2 - t1).count();
        if (r.fullMs == 0.0 || f_ms < r.fullMs)
            r.fullMs = f_ms;
        if (r.sampledMs == 0.0 || s_ms < r.sampledMs)
            r.sampledMs = s_ms;
        std::fprintf(stderr, ".");
    }

    r.speedup = r.fullMs / r.sampledMs;
    r.fullIpc = full.ipc;
    r.sampledIpc = sam.result.ipc;
    r.ipcErrPct = 100.0 * (sam.result.ipc - full.ipc) / full.ipc;
    r.mispredErrPp =
        sam.result.mispredRatePct - full.mispredRatePct;
    r.ipcCiPct = sam.result.ipcErrorBound;
    r.detailedInsts = sam.result.detailedInsts;
    r.fastForwardInsts = sam.fastForwardInsts;
    r.windows = sam.windows;
    // Speed alone is no contract: the production policy must hit the
    // bound AND stay inside the accuracy bounds at paper scale.
    r.pass = r.speedup >= kSpeedupBound &&
        std::abs(r.ipcErrPct) < kIpcBoundPct &&
        std::abs(r.mispredErrPp) < kMispredBoundPp;
    r.ciWarn = r.ipcCiPct > kCiWarnPct;
    return r;
}

ParallelWindowsResult
runParallelWindows(std::uint64_t region, unsigned repeats,
                   const std::string &ckpt_dir, unsigned threads)
{
    const auto profile = program::profileByName("ifcmax");
    const std::uint64_t warmup = 20000;
    const sampling::SamplingPolicy policy =
        sampling::SamplingPolicy::smarts();
    policy.validateForRegion(region);

    ParallelWindowsResult r;
    r.regionInsts = region;
    r.warmupInsts = warmup;
    r.schemes = std::size(kParallelSchemes);

    // Serial baseline: each scheme cell as a standalone serial run of
    // the checkpoint tier — build its own window-checkpoint set, run
    // the windows one by one, merge. This is exactly what the engine
    // executes, minus the sharing and the pool, so the comparison
    // isolates what the engine adds.
    const sim::ProgramRef binary = sim::buildBinaryShared(profile, true);
    std::vector<sampling::SampledRun> serial;
    for (unsigned i = 0; i < repeats; ++i) {
        std::vector<sampling::SampledRun> runs;
        const auto t0 = std::chrono::steady_clock::now();
        for (const char *s : kParallelSchemes) {
            runs.push_back(sampling::sampledRunCheckpointed(
                *binary, profile, schemeByName(s), core::CoreConfig{},
                warmup, region, policy));
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (r.serialMs == 0.0 || ms < r.serialMs)
            r.serialMs = ms;
        if (serial.empty())
            serial = std::move(runs);
        std::fprintf(stderr, ".");
    }
    r.windowsPerCell = serial.front().windows;

    driver::RunMatrix matrix;
    matrix.addBenchmark(profile).ifConvert(true).window(warmup, region);
    for (const char *s : kParallelSchemes)
        matrix.addScheme(s, schemeByName(s));
    matrix.addSampling("smarts", policy);
    const std::vector<driver::RunSpec> specs = matrix.specs();

    // Parallel: one engine pass, in-memory checkpoint sharing only —
    // all four cells ride one functional pass and the detailed windows
    // fan out across the thread pool.
    std::vector<sim::RunResult> parallel_results;
    driver::SweepCounters counters;
    driver::SweepOptions engine_opts;
    engine_opts.threads = threads;
    unsigned threads_used = 0;
    for (unsigned i = 0; i < repeats; ++i) {
        driver::SweepEngine engine{engine_opts};
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<sim::RunResult> res = engine.run(specs);
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (r.parallelMs == 0.0 || ms < r.parallelMs)
            r.parallelMs = ms;
        if (parallel_results.empty()) {
            parallel_results = res;
            counters = engine.counters();
            threads_used = engine.threadsUsed();
        }
        std::fprintf(stderr, ".");
    }
    r.threads = threads_used;
    r.checkpointsBuilt = counters.checkpointsBuilt;
    r.checkpointCacheHits = counters.checkpointCacheHits;

    // Cached: populate the on-disk checkpoint cache once (untimed),
    // then time engine passes that load every set from disk.
    driver::SweepOptions cached_opts = engine_opts;
    cached_opts.checkpointDir = ckpt_dir;
    driver::SweepEngine(cached_opts).run(specs);
    std::vector<sim::RunResult> cached_results;
    for (unsigned i = 0; i < repeats; ++i) {
        driver::SweepEngine engine(cached_opts);
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<sim::RunResult> res = engine.run(specs);
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (r.cachedMs == 0.0 || ms < r.cachedMs)
            r.cachedMs = ms;
        if (cached_results.empty())
            cached_results = res;
        std::fprintf(stderr, ".");
    }

    // Identity contract: both engine passes must reproduce the
    // standalone serial runs bit-for-bit — counters and derived
    // doubles. A mismatch fails the gate regardless of speed.
    r.identical = true;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const sim::RunResult &want = serial[i].result;
        for (const sim::RunResult *got :
             {&parallel_results[i], &cached_results[i]}) {
            for (const auto &f : core::kCoreStatsFields)
                r.identical &= got->stats.*f.member == want.stats.*f.member;
            r.identical &= got->ipc == want.ipc &&
                got->mispredRatePct == want.mispredRatePct &&
                got->measuredInsts == want.measuredInsts &&
                got->ipcErrorBound == want.ipcErrorBound;
        }
        if (!r.identical) {
            std::fprintf(stderr,
                         "\nparallel-windows: cell %s diverges from the "
                         "serial sampled run\n", specs[i].label().c_str());
            break;
        }
    }

    r.speedup = r.serialMs / r.parallelMs;
    r.cachedSpeedup = r.serialMs / r.cachedMs;
    // The >= 2x bound needs real window fan-out; a single-worker pool
    // (single-hardware-thread host) can only show the shared-build win,
    // so there the gate degrades to "sharing must still pay": > 1x.
    r.boundEnforced = r.threads >= 2;
    r.pass = r.identical &&
        (r.boundEnforced
             ? r.speedup >= sampling::kCheckpointParallelSpeedupBound
             : r.speedup > 1.0);
    return r;
}

void
writeJson(const std::string &path, const std::vector<CellResult> &cells,
          const SpeedupResult *speedup,
          const ParallelWindowsResult *parallel, unsigned repeats)
{
    driver::withOutputStream(path, [&](std::ostream &os) {
        driver::JsonWriter w(os);
        w.beginObject();
        w.field("schema", "pp.bench.sampling.v1");
        w.field("ipc_bound_pct", kIpcBoundPct);
        w.field("mispred_bound_pp", kMispredBoundPp);
        w.field("speedup_bound", kSpeedupBound);
        w.key("accuracy_policy");
        w.beginObject();
        const sampling::SamplingPolicy dp = densePolicy();
        w.field("period_insts", dp.periodInsts);
        w.field("window_warmup_insts", dp.warmupInsts);
        w.field("window_measure_insts", dp.measureInsts);
        w.field("warmup_insts", kGridWarmup);
        w.field("measure_insts", kGridMeasure);
        w.endObject();
        w.key("accuracy_grid");
        w.beginArray();
        for (const CellResult &r : cells) {
            w.beginObject();
            w.field("benchmark", r.cell.benchmark);
            w.field("if_converted", r.cell.ifConvert);
            w.field("scheme", r.cell.scheme);
            w.field("full_ipc", r.fullIpc);
            w.field("sampled_ipc", r.sampledIpc);
            w.field("ipc_err_pct", r.ipcErrPct);
            w.field("full_mispred_pct", r.fullMispredPct);
            w.field("sampled_mispred_pct", r.sampledMispredPct);
            w.field("mispred_err_pp", r.mispredErrPp);
            w.field("measured_insts", r.measuredInsts);
            w.field("windows", r.windows);
            w.field("pass", r.pass);
            w.endObject();
        }
        w.endArray();
        if (speedup != nullptr) {
            const sampling::SamplingPolicy sp =
                sampling::SamplingPolicy::smarts();
            w.key("speedup");
            w.beginObject();
            w.field("benchmark", "ifcmax");
            w.field("scheme", "selective");
            w.field("warmup_insts", speedup->warmupInsts);
            w.field("region_insts", speedup->regionInsts);
            w.field("repeats", std::uint64_t(repeats));
            w.key("policy");
            w.beginObject();
            w.field("period_insts", sp.periodInsts);
            w.field("window_warmup_insts", sp.warmupInsts);
            w.field("window_measure_insts", sp.measureInsts);
            w.field("warming_horizon_insts", sp.warmingHorizon);
            w.endObject();
            w.field("full_host_ms", speedup->fullMs);
            w.field("sampled_host_ms", speedup->sampledMs);
            w.field("speedup", speedup->speedup);
            w.field("full_ipc", speedup->fullIpc);
            w.field("sampled_ipc", speedup->sampledIpc);
            w.field("ipc_err_pct", speedup->ipcErrPct);
            w.field("mispred_err_pp", speedup->mispredErrPp);
            w.field("ipc_ci_pct", speedup->ipcCiPct);
            w.field("ipc_ci_warn_pct", kCiWarnPct);
            w.field("ipc_ci_warn", speedup->ciWarn);
            w.field("note",
                    "ipc_err_pct/mispred_err_pp are REALIZED errors vs "
                    "the full-simulation twin and gate --check; "
                    "ipc_ci_pct is the PREDICTED 95% confidence "
                    "half-width a production sweep (no full twin) would "
                    "rely on. A width above ipc_ci_warn_pct warns "
                    "without failing: a small realized error under a "
                    "wide band means the estimate was lucky, not "
                    "precise.");
            w.field("detailed_insts", speedup->detailedInsts);
            w.field("fast_forward_insts", speedup->fastForwardInsts);
            w.field("windows", speedup->windows);
            w.field("pass", speedup->pass);
            w.endObject();
        }
        if (parallel != nullptr) {
            w.key("parallel_windows");
            w.beginObject();
            w.field("benchmark", "ifcmax");
            w.field("warmup_insts", parallel->warmupInsts);
            w.field("region_insts", parallel->regionInsts);
            w.field("repeats", std::uint64_t(repeats));
            w.field("schemes", parallel->schemes);
            w.field("windows_per_cell", parallel->windowsPerCell);
            w.field("threads", std::uint64_t(parallel->threads));
            w.field("serial_host_ms", parallel->serialMs);
            w.field("parallel_host_ms", parallel->parallelMs);
            w.field("cached_host_ms", parallel->cachedMs);
            w.field("speedup", parallel->speedup);
            w.field("cached_speedup", parallel->cachedSpeedup);
            w.field("speedup_bound",
                    sampling::kCheckpointParallelSpeedupBound);
            w.field("speedup_bound_enforced", parallel->boundEnforced);
            w.field("checkpoints_built", parallel->checkpointsBuilt);
            w.field("checkpoint_cache_hits",
                    parallel->checkpointCacheHits);
            w.field("bit_identical", parallel->identical);
            w.field("pass", parallel->pass);
            w.endObject();
        }
        w.endObject();
        os << "\n";
    });
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_sampling.json";
    std::string ckpt_dir;
    bool check = false;
    bool skip_speedup = false;
    bool parallel_windows = false;
    unsigned repeats = 3;
    unsigned threads = 0;
    std::uint64_t speedup_insts = 3000000;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto need_value = [&](void) -> const char * {
            if (i + 1 >= argc)
                fatal(std::string("missing value for ") + a);
            return argv[++i];
        };
        if (std::strcmp(a, "--json") == 0) {
            json_path = need_value();
        } else if (std::strcmp(a, "--check") == 0) {
            check = true;
        } else if (std::strcmp(a, "--skip-speedup") == 0) {
            skip_speedup = true;
        } else if (std::strcmp(a, "--parallel-windows") == 0) {
            parallel_windows = true;
        } else if (std::strcmp(a, "--checkpoint-dir") == 0) {
            ckpt_dir = need_value();
        } else if (std::strcmp(a, "--threads") == 0) {
            threads = static_cast<unsigned>(
                parseU64(a, need_value()));
        } else if (std::strcmp(a, "--repeat") == 0) {
            repeats = static_cast<unsigned>(
                parseU64(a, need_value()));
            if (repeats == 0)
                fatal("--repeat must be at least 1");
        } else if (std::strcmp(a, "--speedup-insts") == 0) {
            speedup_insts = parseU64(a, need_value());
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            std::fprintf(stderr,
                "%s — sampled-simulation accuracy + speedup benchmark\n\n"
                "  --json PATH        output document (default "
                "BENCH_sampling.json, \"-\" = stdout)\n"
                "  --check            exit non-zero when an accuracy "
                "cell or the speedup bound fails\n"
                "  --repeat N         timed speedup repeats, best wins "
                "(default 3)\n"
                "  --speedup-insts N  speedup measurement region "
                "(default 3000000)\n"
                "  --skip-speedup     accuracy grid only\n"
                "  --parallel-windows also measure the checkpoint-"
                "parallel tier: serial vs\n"
                "                     thread-pooled vs disk-cached "
                "engine passes (bit-identity\n"
                "                     enforced, >= 2x gated)\n"
                "  --checkpoint-dir D on-disk checkpoint cache for the "
                "cached pass\n"
                "                     (default <json>.ckpt)\n"
                "  --threads N        engine worker threads for the "
                "parallel tier\n"
                "                     (default: hardware concurrency)\n",
                argv[0]);
            return 0;
        } else {
            fatal(std::string("unknown argument: ") + a);
        }
    }

    std::vector<CellResult> cells;
    for (const AccuracyCell &c : kAccuracyGrid) {
        cells.push_back(runCell(c));
        std::fprintf(stderr, ".");
    }

    SpeedupResult speedup;
    if (!skip_speedup)
        speedup = runSpeedup(speedup_insts, repeats);
    ParallelWindowsResult parallel;
    if (parallel_windows) {
        if (ckpt_dir.empty()) {
            ckpt_dir = json_path == "-" ? "pw_checkpoints"
                                        : json_path + ".ckpt";
        }
        parallel = runParallelWindows(speedup_insts, repeats, ckpt_dir,
                                      threads);
    }
    std::fprintf(stderr, "\n");

    const bool json_to_stdout = json_path == "-";
    std::FILE *report = json_to_stdout ? stderr : stdout;
    std::ostream &ts = json_to_stdout ? std::cerr : std::cout;

    TextTable t;
    t.setHeader({"cell", "full IPC", "sampled", "err%", "full mis%",
                 "sampled", "err pp"});
    bool all_pass = true;
    for (const CellResult &r : cells) {
        t.addRow(std::string(r.cell.benchmark) +
                     (r.cell.ifConvert ? "+ifc/" : "/") + r.cell.scheme,
                 {r.fullIpc, r.sampledIpc, r.ipcErrPct, r.fullMispredPct,
                  r.sampledMispredPct, r.mispredErrPp});
        all_pass = all_pass && r.pass;
    }
    std::fprintf(report,
                 "\n== sampled accuracy, golden grid (bounds: IPC %.1f%%,"
                 " mispred %.1fpp) ==\n",
                 kIpcBoundPct, kMispredBoundPp);
    t.print(ts);
    std::fprintf(report, "accuracy: %s\n", all_pass ? "PASS" : "FAIL");

    if (!skip_speedup) {
        std::fprintf(report,
            "\n== sampled speedup, ifcmax/selective, %llu insts "
            "(best of %u) ==\n"
            "full %.1f ms -> sampled %.1f ms: %.2fx (bound %.1fx) — "
            "ipc err %+.2f%%, mispred err %+.3fpp, 95%% CI %.1f%%\n"
            "detailed %llu insts, fast-forwarded %llu, %llu windows\n"
            "speedup: %s\n",
            (unsigned long long)speedup.regionInsts, repeats,
            speedup.fullMs, speedup.sampledMs, speedup.speedup,
            kSpeedupBound, speedup.ipcErrPct, speedup.mispredErrPp,
            speedup.ipcCiPct, (unsigned long long)speedup.detailedInsts,
            (unsigned long long)speedup.fastForwardInsts,
            (unsigned long long)speedup.windows,
            speedup.pass ? "PASS" : "FAIL");
        if (speedup.ciWarn) {
            // Warn-level only: the gate checks realized point error;
            // the CI is the band a sweep without a full twin would
            // quote (see the JSON note field).
            std::fprintf(stderr,
                         "WARNING: ipc 95%% CI half-width %.1f%% exceeds "
                         "%.1f%% (estimate imprecise, not failed)\n",
                         speedup.ipcCiPct, kCiWarnPct);
        }
        all_pass = all_pass && speedup.pass;
    }

    if (parallel_windows) {
        std::fprintf(report,
            "\n== checkpoint-parallel windows, ifcmax x %llu schemes, "
            "%llu insts (best of %u) ==\n"
            "serial %.1f ms -> parallel %.1f ms: %.2fx (bound %.1fx, "
            "%u threads) — cached %.1f ms: %.2fx\n"
            "%llu windows/cell, %llu checkpoint sets built, %llu cache "
            "hits, bit-identical: %s\n"
            "parallel-windows: %s\n",
            (unsigned long long)parallel.schemes,
            (unsigned long long)parallel.regionInsts, repeats,
            parallel.serialMs, parallel.parallelMs, parallel.speedup,
            sampling::kCheckpointParallelSpeedupBound, parallel.threads,
            parallel.cachedMs, parallel.cachedSpeedup,
            (unsigned long long)parallel.windowsPerCell,
            (unsigned long long)parallel.checkpointsBuilt,
            (unsigned long long)parallel.checkpointCacheHits,
            parallel.identical ? "yes" : "NO",
            parallel.pass ? "PASS" : "FAIL");
        if (!parallel.boundEnforced) {
            std::fprintf(stderr,
                         "NOTE: single-worker pool — the %.1fx bound "
                         "needs >= 2 hardware threads; gating on "
                         "shared-build speedup > 1x instead\n",
                         sampling::kCheckpointParallelSpeedupBound);
        }
        all_pass = all_pass && parallel.pass;
    }

    writeJson(json_path, cells, skip_speedup ? nullptr : &speedup,
              parallel_windows ? &parallel : nullptr, repeats);

    if (check && !all_pass) {
        std::fprintf(stderr, "bench_sampling_accuracy: bounds FAILED\n");
        return 1;
    }
    return 0;
}
