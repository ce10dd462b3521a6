/**
 * @file
 * Checkpoint-parallel sampled simulation: per-window warm-state
 * checkpoints.
 *
 * A sampled run with real gaps between windows (periodInsts >
 * windowInsts) decomposes into independent jobs: one cheap functional
 * pass over the region emits, at each window's warm-start, a
 * WindowCheckpoint — the emulator's architectural checkpoint plus the
 * recorded warming event stream of the horizon leading up to it
 * (program/warm_stream.hh). A window job restores the checkpoint into a
 * new core, replays the warming through that core's own tables
 * (scheme-agnostic: the stream holds committed behavior, not table
 * state), runs the detailed warmup+measure, and returns its stats
 * delta. Merging the deltas in window order reproduces the serial
 * checkpoint tier (sampledRunCheckpointed()) bit-for-bit, so the
 * parallel execution in the sweep engine is identical by construction
 * at any thread count. The tier is a deliberate estimator change from
 * the persistent-core sampledRunDetailed(): independence is what buys
 * parallelism and reuse (see sampledRunCheckpointed() below).
 *
 * A WindowCheckpointSet depends only on (workload, region, policy) —
 * never on the prediction scheme or core config — so N scheme cells
 * share one functional pass (the SweepEngine caches sets beside
 * binaries/decoded programs/traces), and the set serializes to a
 * versioned pp.ckpt.v2 artifact (docs/checkpoint_format.md) for
 * cross-process and future cross-host reuse.
 */

#ifndef PP_SAMPLING_WINDOW_CHECKPOINT_HH
#define PP_SAMPLING_WINDOW_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytestream.hh"
#include "program/emulator.hh"
#include "sampling/sampled_simulator.hh"
#include "sampling/sampling_policy.hh"
#include "sim/simulator.hh"

namespace pp
{
namespace sampling
{

/** One window's resume point: architectural state + recorded warming. */
struct WindowCheckpoint
{
    /** Absolute instruction index the checkpoint captures (warm start). */
    std::uint64_t warmStart = 0;

    /** Absolute index of the first measured instruction. */
    std::uint64_t measureStart = 0;

    /** Absolute index one past the last measured instruction. */
    std::uint64_t measureEnd = 0;

    /**
     * Emulator architectural state at warmStart. Its data pages are
     * shared with the previous window's wherever they are equal.
     */
    program::Emulator::Checkpoint arch;

    /** Warming events of [warmBegin, warmStart), one word each (see
     *  warm_stream.hh). */
    std::vector<std::uint32_t> warmEvents;
};

/** All windows of one (workload, region, policy): the shared artifact. */
struct WindowCheckpointSet
{
    /** Region lead-in (instructions before the measurement region). */
    std::uint64_t regionWarmup = 0;

    /** Measurement-region length in instructions. */
    std::uint64_t regionMeasure = 0;

    /** The sampling policy the windows were laid out under. */
    SamplingPolicy policy;

    /** Functional instructions the one-shot builder pass executed. */
    std::uint64_t builderInsts = 0;

    std::vector<WindowCheckpoint> windows;

    /** Portable little-endian pp.ckpt.v2 image (versioned + hashed). */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Parse a serialize() image read from @p path ("" in memory; it
     * only names the file in errors). Throws ArtifactError on a
     * corrupt, foreign or truncated image (hash checked before any
     * structural decode) or malformed structure.
     */
    static WindowCheckpointSet
    deserialize(const std::vector<std::uint8_t> &bytes,
                const std::string &path = "");

    /** Atomically write serialize() to @p path (fatal on I/O error). */
    void store(const std::string &path) const;

    /** Read @p path and deserialize() it; throws ArtifactError. */
    static WindowCheckpointSet loadOrThrow(const std::string &path);

    /**
     * Throw ArtifactError (Mismatch, naming @p path and the window)
     * unless the set is the one buildWindowCheckpoints() lays out for
     * the region [@p warmup_insts, + @p measure_insts) under
     * @p policy — that region and policy, and exactly the windows the
     * builder places there, bound for bound — and fits @p binary,
     * replayed from @p trace (null for a generated workload): every
     * window's data segment has the binary's size, its register files
     * the core's, its PC and every return address lie in the code
     * image, its condition state has the binary's condition count,
     * comes from the workload's kind of condition source (generated or
     * replayed) and holds only cursors that source can restore
     * (program::cursorFits), and every Branch and Compare event names
     * one of the binary's instructions. A loaded set is checked before
     * any window runs, so a hash-sound set of another program, mode or
     * layout never reaches the core's unchecked image reads, the
     * restore path's panics or a window run asked for a wrapped
     * instruction count.
     */
    void validate(const program::Program &binary,
                  const program::TraceFile *trace,
                  std::uint64_t warmup_insts, std::uint64_t measure_insts,
                  const SamplingPolicy &policy,
                  const std::string &path) const;
};

/**
 * True when the sweep engine routes @p policy through the checkpoint
 * tier: enabled, with a real functional gap between consecutive
 * windows. Gapless policies (back-to-back or overlapping windows) keep
 * the persistent-core serial path — their windows are not independent.
 */
inline bool
checkpointEligible(const SamplingPolicy &policy)
{
    return policy.enabled() && policy.periodInsts > policy.windowInsts();
}

/**
 * The one-shot functional pass: lay out the windows of the region
 * [warmup_insts, warmup_insts + measure_insts) under @p policy and
 * capture each one's WindowCheckpoint. Scheme- and config-independent.
 */
WindowCheckpointSet
buildWindowCheckpoints(const program::Program &binary,
                       const program::BenchmarkProfile &profile,
                       std::uint64_t warmup_insts,
                       std::uint64_t measure_insts,
                       const SamplingPolicy &policy,
                       const program::DecodedProgram *decoded = nullptr,
                       const program::TraceFile *trace = nullptr);

/** Raw outcome of one window job (merged by mergeWindowRuns). */
struct WindowRunResult
{
    /** Measurement-phase stats delta (zero when overshot). */
    core::CoreStats delta;

    /** Detailed instructions the window core committed in total. */
    std::uint64_t coreCommitted = 0;

    /** Warmup ran past measureEnd (tiny window): nothing measured. */
    bool overshot = false;

    /** Host ms restoring the checkpoint + replaying warming. */
    double warmHostMs = 0.0;

    /** Host ms in detailed warmup + measurement. */
    double windowHostMs = 0.0;
};

/**
 * Run one window job: a new core resumed from @p w's checkpoint,
 * warming replayed through its own tables, detailed warmup + measure.
 * Microarchitectural state starts cold; only the oracle's data segment
 * is recycled, one per thread, so a window restores just the pages
 * that differ from the last one this thread ran. @p cfg must already
 * be scheme-resolved (sim::resolveConfig) and @p seed the workload's
 * core seed (sim::coreSeed) — identical inputs give bit-identical
 * deltas on any thread or process, in any order.
 */
WindowRunResult runWindow(const WindowCheckpoint &w,
                          const program::Program &binary,
                          const core::CoreConfig &cfg, std::uint64_t seed,
                          const program::DecodedProgram *decoded = nullptr,
                          const program::TraceFile *trace = nullptr);

/**
 * Fold window-job results (one per set window, in window order) into a
 * SampledRun shaped exactly like the serial path's: pooled ratio
 * estimators, extrapolated counters, t-distribution CI bounds. Pure
 * function of its inputs.
 */
SampledRun mergeWindowRuns(const WindowCheckpointSet &set,
                           const std::vector<WindowRunResult> &runs,
                           const std::string &benchmark,
                           std::uint64_t measure_insts);

/**
 * Serial build + run + merge of one eligible policy: the bit-identity
 * reference for the sweep engine's parallel window execution (which
 * runs the same three stages with the window jobs fanned across the
 * pool). This tier trades the persistent-core estimator of
 * sampledRunDetailed() — whose predictor tables accumulate history
 * across the whole region — for windows that are independent given
 * their checkpoint (each warmed only by its recorded horizon), which
 * is what makes parallel execution and cross-scheme checkpoint reuse
 * possible. The two estimators are not bit-identical to each other,
 * and this tier's accuracy is not yet gated: the accuracy contract
 * (accuracy_contract.hh) is checked on the persistent-core path only
 * (see the ROADMAP item "Make sampled estimates honest").
 */
SampledRun
sampledRunCheckpointed(const program::Program &binary,
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

#endif // PP_SAMPLING_WINDOW_CHECKPOINT_HH
