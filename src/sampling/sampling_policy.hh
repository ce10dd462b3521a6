/**
 * @file
 * SMARTS-style sampling policy: how one run interleaves cheap functional
 * fast-forward with short detailed windows.
 *
 * A sampled run estimates the statistics of a measurement region of L
 * committed instructions without simulating all of them in detail.
 * Measurement windows of @ref measureInsts instructions start every
 * @ref periodInsts instructions through the region; each window is
 * preceded by @ref warmupInsts instructions of detailed warmup (stats
 * discarded — this re-trains predictors, caches and queue occupancy
 * after the fast-forward). Everything between windows executes on the
 * functional emulator only.
 *
 * Accuracy contract (pinned by tests/sampling/): when windows tile the
 * region exactly (periodInsts >= region length, or periodInsts ==
 * measureInsts) no extrapolation happens and the estimate is exact; in
 * particular periodInsts >= region with warmupInsts >= the run's full
 * warmup degenerates to bit-identical full simulation.
 */

#ifndef PP_SAMPLING_SAMPLING_POLICY_HH
#define PP_SAMPLING_SAMPLING_POLICY_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"

namespace pp
{
namespace sampling
{

/** Knobs of one sampled run. Default-constructed = sampling disabled. */
struct SamplingPolicy
{
    /**
     * Distance between measurement-window starts, in committed
     * instructions. 0 disables sampling (full detailed simulation).
     */
    std::uint64_t periodInsts = 0;

    /** Detailed warmup before each window (stats discarded). */
    std::uint64_t warmupInsts = 2000;

    /** Detailed measurement length of each window. */
    std::uint64_t measureInsts = 1000;

    /**
     * The fast-forward trains caches, TLBs, direction predictors and
     * the predicate predictor functionally (SMARTS functional warming)
     * over the last @c warmingHorizon instructions before each window;
     * further out it advances architectural state only (tables keep
     * their — stale but trained — content from earlier windows). 0 =
     * warm the whole gap.
     * Warming costs ~2x plain emulation, so on long periods a horizon
     * buys most of the remaining speedup; the stationary workloads this
     * suite generates lose almost no accuracy to it (see
     * BENCH_sampling.json).
     */
    std::uint64_t warmingHorizon = 30000;

    bool enabled() const { return periodInsts != 0; }

    /** Detailed instructions per sampling period (cost per window). */
    std::uint64_t windowInsts() const { return warmupInsts + measureInsts; }

    /** Measurement windows this policy starts in a region of @p len. */
    std::uint64_t
    windowsInRegion(std::uint64_t len) const
    {
        if (!enabled() || len == 0)
            return 0;
        return (len + periodInsts - 1) / periodInsts;
    }

    /**
     * Validate the policy against a region of @p len instructions:
     * production estimates need >= 8 windows, below which even the
     * small-n t correction leaves the reported confidence bounds
     * statistically meaningless. Benchmarks and smarts()-policy
     * consumers call this; diagnostic runs that knowingly measure few
     * windows (degeneracy tests, window-level studies) do not.
     */
    void
    validateForRegion(std::uint64_t len) const
    {
        if (!enabled())
            return;
        if (windowsInRegion(len) < 8)
            panic("sampling region of " + std::to_string(len) +
                  " insts yields only " +
                  std::to_string(windowsInRegion(len)) +
                  " windows under policy " + label() +
                  " (need >= 8 for usable confidence bounds: "
                  "shrink the period or grow the region)");
    }

    /** Compact "u<period>w<warm>m<measure>" tag for labels/filters. */
    std::string
    label() const
    {
        if (!enabled())
            return "full";
        return "u" + std::to_string(periodInsts) +
               "w" + std::to_string(warmupInsts) +
               "m" + std::to_string(measureInsts);
    }

    /**
     * The tuned production policy for paper-scale (1M+) regions: ~4%
     * detailed coverage, predictor/cache warming over the last 100k
     * instructions before each window (the last 2/3 of the gap on
     * shorter periods). Retuned after the predecoded two-tier
     * fast-forward made the skip tier ~14x cheaper than detailed
     * simulation: the period stretched (150k -> 250k) and the measure
     * window grew (4k -> 6k), trading window count for per-window
     * measured coverage at a fixed 100k warming length — the warming
     * length, not the skipped span, is what bounds the misprediction-
     * rate error (stale tables retrain during warming; see
     * BENCH_sampling.json). On the ifcmax stress profile this measures
     * >=10x end-to-end speedup at ~1% IPC and <0.4pp misprediction
     * error vs full simulation — see bench_sampling_accuracy.
     * Short regions want denser coverage (sampling error scales with
     * window count): see the accuracy-grid policy in that benchmark.
     */
    static SamplingPolicy
    smarts(std::uint64_t period = 250000)
    {
        SamplingPolicy p;
        p.periodInsts = period;
        p.warmupInsts = 4000;
        p.measureInsts = 6000;
        p.warmingHorizon =
            period * 2 / 3 < 100000 ? period * 2 / 3 : 100000;
        return p;
    }
};

} // namespace sampling
} // namespace pp

#endif // PP_SAMPLING_SAMPLING_POLICY_HH
