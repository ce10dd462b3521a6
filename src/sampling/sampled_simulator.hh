/**
 * @file
 * Sampled simulation: estimate the statistics of a long measurement
 * region from short detailed windows, fast-forwarding between them on
 * the functional emulator (SMARTS-style systematic sampling).
 *
 * Each window restores the emulator's architectural state into a fresh
 * core (program::Emulator::Checkpoint), burns a detailed warmup whose
 * stats are discarded, then measures. Window deltas are accumulated;
 * counters are extrapolated to the full region and derived rates use
 * the pooled ratio estimators, with an approximate 95% confidence
 * half-width on IPC reported per run. See sampling_policy.hh for the
 * exactness/degeneracy contract.
 */

#ifndef PP_SAMPLING_SAMPLED_SIMULATOR_HH
#define PP_SAMPLING_SAMPLED_SIMULATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/corestats.hh"
#include "sampling/sampling_policy.hh"
#include "sim/simulator.hh"

namespace pp
{
namespace sampling
{

/** Raw measurement of one detailed window (tests / diagnostics). */
struct WindowSample
{
    /** Architectural index of the first measured instruction. */
    std::uint64_t startInst = 0;

    /** Measurement-phase stats delta (warmup already discarded). */
    core::CoreStats stats;
};

/** A sampled run's estimate plus its sampling diagnostics. */
struct SampledRun
{
    /**
     * Extrapolated result, shaped exactly like a full sim::run() result
     * (sinks and aggregation consume it unchanged): counters scaled to
     * the region, rates from pooled windows, sampled/measuredInsts/
     * detailedInsts/ipcErrorBound filled in.
     */
    sim::RunResult result;

    std::uint64_t windows = 0;

    /** Instructions executed functionally only (the skipped cost). */
    std::uint64_t fastForwardInsts = 0;

    /** 95% CI half-width on the misprediction rate, absolute pp. */
    double mispredCiPp = 0.0;

    /** Per-window raw deltas, in region order. */
    std::vector<WindowSample> samples;
};

/**
 * The window tally and estimate tail both sampled estimators share
 * (sampledRunDetailed() and mergeWindowRuns()): add() each measured
 * window in region order, then finish() pools them into the estimate.
 */
struct WindowTally
{
    /** Summed measurement deltas of the windows added so far. */
    core::CoreStats total;

    /** The windows added so far, in region order. */
    std::vector<WindowSample> samples;

    /** Add the window whose measurement starts at @p start_inst. */
    void add(std::uint64_t start_inst, const core::CoreStats &delta);

    /**
     * The estimate, moving the samples into it. Rates come from the
     * pooled windows (ratio estimators: exactly the formulas a full run
     * applies to its one window). Counters are the exact sums when
     * @p exact or when nothing was measured, else extrapolated to
     * @p measure_insts per measured instruction. IPC and misprediction
     * get t-distribution CI bounds. Host times and fastForwardInsts are
     * the caller's.
     */
    SampledRun finish(const std::string &benchmark,
                      std::uint64_t measure_insts,
                      std::uint64_t detailed_insts, bool exact);
};

/**
 * Two-sided 95% Student-t critical value for @p df degrees of freedom
 * (largest tabulated df <= the actual one; 1.96 beyond the table).
 * Sampled runs have few windows, where the normal 1.96 understates the
 * half-width badly — at 7 windows by ~21%.
 */
double tCritical95(std::size_t df);

/**
 * 95% confidence half-width of the mean of @p xs using the Student-t
 * critical value for n-1 degrees of freedom; 0 when fewer than two
 * samples exist.
 */
double ciHalfWidth(const std::vector<double> &xs);

/**
 * Sampled analogue of sim::run(): estimate the stats of the full run's
 * measurement region [warmup_insts, warmup_insts + measure_insts) under
 * @p policy. A disabled policy falls back to full detailed simulation.
 * @p decoded optionally shares a predecode of @p binary (nullptr: the
 * core decodes privately); results are bit-identical either way. With
 * @p trace the whole run — fast-forward tiers included — replays the
 * trace's recorded condition streams (see sim::run()).
 */
SampledRun sampledRunDetailed(const program::Program &binary,
                              const program::BenchmarkProfile &profile,
                              const sim::SchemeConfig &scheme,
                              const core::CoreConfig &base_cfg,
                              std::uint64_t warmup_insts,
                              std::uint64_t measure_insts,
                              const SamplingPolicy &policy,
                              const program::DecodedProgram *decoded =
                                  nullptr,
                              const program::TraceFile *trace = nullptr);

/** As above, dropping the diagnostics. */
sim::RunResult sampledRun(const program::Program &binary,
                          const program::BenchmarkProfile &profile,
                          const sim::SchemeConfig &scheme,
                          const core::CoreConfig &base_cfg,
                          std::uint64_t warmup_insts,
                          std::uint64_t measure_insts,
                          const SamplingPolicy &policy,
                          const program::DecodedProgram *decoded = nullptr,
                          const program::TraceFile *trace = nullptr);

} // namespace sampling
} // namespace pp

#endif // PP_SAMPLING_SAMPLED_SIMULATOR_HH
