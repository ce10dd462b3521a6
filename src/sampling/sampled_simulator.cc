#include "sampling/sampled_simulator.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "core/core.hh"
#include "obs/trace_event.hh"
#include "program/emulator.hh"
#include "sampling/window_checkpoint.hh"

namespace pp
{
namespace sampling
{

void
WindowTally::add(std::uint64_t start_inst, const core::CoreStats &delta)
{
    for (const auto &f : core::kCoreStatsFields)
        total.*f.member += delta.*f.member;
    samples.push_back(WindowSample{start_inst, delta});
}

SampledRun
WindowTally::finish(const std::string &benchmark,
                    std::uint64_t measure_insts,
                    std::uint64_t detailed_insts, bool exact)
{
    SampledRun out;
    sim::RunResult &r = out.result;
    r.benchmark = benchmark;
    r.sampled = true;
    r.measuredInsts = total.committedInsts;
    r.detailedInsts = detailed_insts;
    r.ipc = total.ipc();
    r.mispredRatePct = total.mispredRatePct();
    r.accuracyPct = 100.0 - r.mispredRatePct;
    r.shadowMispredRatePct = total.shadowMispredRatePct();
    r.earlyResolvedPct = total.earlyResolvedPct();

    // Every window swallowed by drain overshoot (a window shorter than
    // the pipeline's in-flight slack) leaves no measurement to
    // extrapolate: scaling would divide by zero.
    if (exact || total.committedInsts == 0) {
        r.stats = total;
    } else {
        const double scale = static_cast<double>(measure_insts) /
            static_cast<double>(total.committedInsts);
        for (const auto &f : core::kCoreStatsFields) {
            r.stats.*f.member = static_cast<std::uint64_t>(std::llround(
                static_cast<double>(total.*f.member) * scale));
        }
    }

    std::vector<double> window_ipc;
    std::vector<double> window_mispred;
    for (const WindowSample &w : samples) {
        window_ipc.push_back(w.stats.ipc());
        window_mispred.push_back(w.stats.mispredRatePct());
    }
    const double ipc_half = ciHalfWidth(window_ipc);
    r.ipcErrorBound = r.ipc > 0.0 ? 100.0 * ipc_half / r.ipc : 0.0;
    out.mispredCiPp = ciHalfWidth(window_mispred);

    out.windows = samples.size();
    out.samples = std::move(samples);
    return out;
}

double
tCritical95(std::size_t df)
{
    // Two-sided 95% points of the t distribution, stepped down to the
    // largest tabulated df; past df=30 the normal value is within 2%.
    struct Entry { std::size_t df; double t; };
    static constexpr Entry kTable[] = {
        {30, 2.042}, {20, 2.086}, {15, 2.131}, {12, 2.179}, {10, 2.228},
        {9, 2.262},  {8, 2.306},  {7, 2.365},  {6, 2.447},  {5, 2.571},
        {4, 2.776},  {3, 3.182},  {2, 4.303},  {1, 12.706},
    };
    if (df == 0)
        return 0.0;
    if (df > 30)
        return 1.96;
    for (const Entry &e : kTable) {
        if (df >= e.df)
            return e.t;
    }
    return kTable[sizeof(kTable) / sizeof(kTable[0]) - 1].t;
}

double
ciHalfWidth(const std::vector<double> &xs)
{
    const std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    double mean = 0.0;
    for (const double x : xs)
        mean += x;
    mean /= static_cast<double>(n);
    double ss = 0.0;
    for (const double x : xs)
        ss += (x - mean) * (x - mean);
    const double sd = std::sqrt(ss / static_cast<double>(n - 1));
    return tCritical95(n - 1) * sd / std::sqrt(static_cast<double>(n));
}

SampledRun
sampledRunDetailed(const program::Program &binary,
                   const program::BenchmarkProfile &profile,
                   const sim::SchemeConfig &scheme,
                   const core::CoreConfig &base_cfg,
                   std::uint64_t warmup_insts, std::uint64_t measure_insts,
                   const SamplingPolicy &policy,
                   const program::DecodedProgram *decoded,
                   const program::TraceFile *trace)
{
    if (!policy.enabled()) {
        SampledRun full;
        full.result = sim::run(binary, profile, scheme, base_cfg,
                               warmup_insts, measure_insts, decoded, trace);
        return full;
    }
    panicIfNot(measure_insts > 0, "sampled run with empty region");
    panicIfNot(policy.measureInsts > 0,
               "sampling window must measure at least one instruction");

    const core::CoreConfig cfg = sim::resolveConfig(scheme, base_cfg);
    const std::uint64_t seed = sim::coreSeed(profile);
    const std::uint64_t region_start = warmup_insts;
    const std::uint64_t region_end = warmup_insts + measure_insts;

    const auto host_start = std::chrono::steady_clock::now();

    // One core lives across the whole run, so predictor tables and
    // caches persist: between windows it drains, fast-forwards its own
    // oracle (warming those structures functionally), and resumes
    // detailed execution on the correct path.
    core::OoOCore cpu(binary, cfg, seed, decoded, trace);

    WindowTally tally;

    // All window boundaries are absolute program positions; detailed
    // run() targets subtract the fast-forwarded total, so commit-width
    // overshoot at one boundary is absorbed by the next instead of
    // accumulating — and a single region-covering window issues exactly
    // the run(warmup); run(warmup + measure) calls of a full run.
    std::uint64_t ff_total = 0;
    std::uint64_t ff_in_region = 0; ///< gaps between windows, not lead-in
    double ff_ms = 0.0;
    double window_ms = 0.0;

    for (std::uint64_t s = region_start; s < region_end;
         s += policy.periodInsts) {
        const std::uint64_t meas_end =
            s + std::min<std::uint64_t>(policy.measureInsts,
                                        region_end - s);
        const std::uint64_t warm_start =
            s > policy.warmupInsts ? s - policy.warmupInsts : 0;

        // Skip ahead only when there is a real gap: contiguous windows
        // flow straight from one measurement into the next warmup with
        // the pipeline intact (and the first window from reset).
        if (warm_start > ff_total + cpu.coreStats().committedInsts) {
            const auto ff_start = std::chrono::steady_clock::now();
            {
                obs::ScopedSpan drain_span(obs::tracer(), "drain",
                                           "sampling");
                cpu.drainPipeline();
            }
            const std::uint64_t pos = cpu.programPosition();
            if (warm_start > pos) {
                const std::uint64_t ff = warm_start - pos;
                const std::uint64_t horizon = policy.warmingHorizon;
                if (policy.functionalWarming && horizon != 0 &&
                    ff > horizon) {
                    cpu.fastForward(ff - horizon, false);
                    cpu.fastForward(horizon, true);
                } else {
                    cpu.fastForward(ff, policy.functionalWarming);
                }
                ff_total += ff;
                if (s != region_start)
                    ff_in_region += ff;
            }
            ff_ms += std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - ff_start).count();
        }

        const auto win_start = std::chrono::steady_clock::now();
        core::CoreStats delta;
        bool overshot = false;
        {
            obs::ScopedSpan win_span(obs::tracer(), "detailed_window",
                                     "sampling", profile.name);
            cpu.run(s - ff_total);
            const core::CoreStats at_warm = cpu.coreStats();
            if (ff_total + at_warm.committedInsts >= meas_end) {
                overshot = true; // drain overshot the window (tiny period)
            } else {
                cpu.run(meas_end - ff_total);
                delta = sim::statsDelta(at_warm, cpu.coreStats());
            }
        }
        window_ms += std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - win_start).count();
        if (overshot)
            continue;

        tally.add(s, delta);
    }

    // Counters: exact sums when the windows left no architectural gap —
    // back-to-back windows (period <= window measure), or one window
    // spanning the whole region, the degenerate case that is then
    // bit-identical to a full run. Otherwise extrapolate per measured
    // instruction.
    // Tiling only counts as full coverage when the summed windows
    // actually span the region: commit-width overshoot can swallow
    // windows narrower than itself, and those losses must extrapolate,
    // not under-report. Normal tiling falls short of the region only by
    // the first boundary's commit slack.
    const bool tiles = policy.periodInsts <= policy.measureInsts &&
        tally.total.committedInsts + cfg.commitWidth >= measure_insts;
    const bool single_full = tally.samples.size() == 1 &&
        policy.measureInsts >= measure_insts;
    SampledRun out = tally.finish(
        profile.name, measure_insts, cpu.coreStats().committedInsts,
        ff_in_region == 0 && (tiles || single_full));
    out.fastForwardInsts = ff_total;

    out.result.hostMs = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - host_start).count();
    out.result.ffHostMs = ff_ms;
    out.result.windowHostMs = window_ms;
    return out;
}

sim::RunResult
sampledRun(const program::Program &binary,
           const program::BenchmarkProfile &profile,
           const sim::SchemeConfig &scheme,
           const core::CoreConfig &base_cfg, std::uint64_t warmup_insts,
           std::uint64_t measure_insts, const SamplingPolicy &policy,
           const program::DecodedProgram *decoded,
           const program::TraceFile *trace)
{
    return sampledRunDetailed(binary, profile, scheme, base_cfg,
                              warmup_insts, measure_insts, policy, decoded,
                              trace)
        .result;
}

} // namespace sampling
} // namespace pp
