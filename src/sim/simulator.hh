/**
 * @file
 * Public simulation API: build a benchmark binary (optionally
 * if-converted) and run it on a configured core. This is the entry point
 * examples and benchmark harnesses use.
 */

#ifndef PP_SIM_SIMULATOR_HH
#define PP_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/config.hh"
#include "core/corestats.hh"
#include "program/decoded.hh"
#include "program/ifconvert.hh"
#include "program/program.hh"
#include "program/suite.hh"
#include "program/trace.hh"

namespace pp
{
namespace sim
{

/** Prediction/predication scheme selection for one run. */
struct SchemeConfig
{
    core::PredictionScheme scheme = core::PredictionScheme::Conventional;
    core::PredicationModel predication = core::PredicationModel::Cmov;
    bool idealNoAlias = false;
    bool idealPerfectHistory = false;
    bool shadowConventional = false;

    /** §3.3 ablation: statically split PVT instead of dual hashing. */
    bool splitPvt = false;

    /** Confidence-counter width for selective predication (0 = default). */
    unsigned confidenceBits = 0;
};

/**
 * One workload: a benchmark binary over a run window. Both sweep tiers
 * (driver::RunSpec, replay::ReplayWorkloadSpec) build, cache and key
 * their programs through it.
 */
struct Workload
{
    program::BenchmarkProfile profile;
    bool ifConvert = false;
    std::uint64_t warmupInsts = 0;
    std::uint64_t measureInsts = 0;

    /**
     * Path of a trace artifact (program/trace.hh) to replay instead of
     * generating the workload. Empty: generate from the profile. When
     * set, the sweep engine loads the trace (once per distinct path,
     * shared), validates it against this workload's profile/if-
     * conversion, and every code path that would have drawn a fresh
     * condition outcome replays the recorded stream instead.
     */
    std::string tracePath;

    /** Key identifying the binary this workload needs. */
    std::string binaryKey() const;

    /**
     * Cache key for the engine's binary/decode/trace caches: the trace
     * path when replaying (two workloads naming the same artifact share
     * everything), binaryKey() otherwise.
     */
    std::string buildKey() const;
};

/** Result of one measured run. */
struct RunResult
{
    std::string benchmark;
    core::CoreStats stats;        ///< measurement window only

    double mispredRatePct = 0.0;  ///< conditional-branch mispred %
    double accuracyPct = 0.0;     ///< 100 - mispredRatePct
    double ipc = 0.0;
    double shadowMispredRatePct = 0.0;
    double earlyResolvedPct = 0.0;///< early-resolved / committed branches

    /**
     * Host wall time of the whole run (core construction + warmup +
     * measurement), so every sweep doubles as a simulator-throughput
     * sample. This is the one field that is NOT deterministic; byte-
     * identity comparisons of serialized results must scrub it.
     */
    double hostMs = 0.0;

    /**
     * @name Host-time breakdown (also non-deterministic; scrubbed with
     * hostMs by byte-identity comparisons)
     *
     * Where hostMs went: binary build + decode + trace work amortized
     * over the cell's runs, fast-forward (skip + warm tiers), and the
     * detailed cycle-by-cycle windows. For full runs windowHostMs is
     * the whole core execution and ffHostMs stays 0.
     */
    /// @{
    double buildHostMs = 0.0;   ///< cell build cost (set by the driver)
    double ffHostMs = 0.0;      ///< fast-forward + drain host time
    double windowHostMs = 0.0;  ///< detailed-window host time
    /// @}

    /** @name Sampled-simulation annotations (see sampling/) */
    /// @{
    /**
     * True when @ref stats holds extrapolated estimates from sampled
     * windows rather than a contiguous detailed measurement.
     */
    bool sampled = false;

    /**
     * Instructions actually measured in detail behind the estimate
     * (sum of the measurement windows; 0 for full runs, where
     * stats.committedInsts is itself the measured count).
     */
    std::uint64_t measuredInsts = 0;

    /**
     * Committed instructions simulated cycle-by-cycle, warmup included —
     * the cost driver a sampling speedup shrinks. Full runs report
     * warmup + measurement here.
     */
    std::uint64_t detailedInsts = 0;

    /**
     * Approximate 95% confidence half-width on @ref ipc across the
     * sampled windows, as a percentage of the estimate (0 for full runs
     * and single-window samples).
     */
    double ipcErrorBound = 0.0;
    /// @}

    /**
     * Content hash (hex) of the trace artifact behind this run — the
     * one recorded for it or the one it replayed; empty when the run
     * generated its workload with no trace attached. Filled in by the
     * sweep engine and surfaced by the sinks, so a result document
     * names the exact workload bytes that produced it.
     */
    std::string traceHash;
};

/**
 * Build the binary for @p profile. With @p if_convert the profile's
 * if-conversion policy is applied (profile-guided, see ifconvert.hh).
 */
program::Program buildBinary(const program::BenchmarkProfile &profile,
                             bool if_convert,
                             program::IfConvertStats *ifc_stats = nullptr);

/**
 * Immutable shared handle to a built binary. Programs never change after
 * assembly, so concurrent runs may execute the same image; the driver's
 * binary cache builds each (profile, if-convert) pair once and hands the
 * same ProgramRef to every run that needs it.
 */
using ProgramRef = std::shared_ptr<const program::Program>;

/** buildBinary(), wrapped for shared cross-thread use. */
ProgramRef buildBinaryShared(const program::BenchmarkProfile &profile,
                             bool if_convert);

/**
 * Immutable shared handle to a binary's predecoded micro-op stream
 * (program/decoded.hh). Like the binary itself it is built once per
 * (profile, if-convert) pair and shared read-only by every run; the
 * Program it was decoded from must outlive it.
 */
using DecodedRef = std::shared_ptr<const program::DecodedProgram>;

/** Predecode @p binary for shared cross-thread use. */
DecodedRef decodeShared(const ProgramRef &binary);

/**
 * Immutable shared handle to a trace artifact (program/trace.hh).
 * Loaded or recorded once per (benchmark, if-convert) cell and shared
 * read-only by every run of the cell; per-run replay cursors live in
 * each run's own emulator.
 */
using TraceRef = std::shared_ptr<const program::TraceFile>;

/**
 * A ProgramRef aliasing @p trace's embedded binary: the trace keeps the
 * program alive, and every consumer (decode cache, cores) sees the one
 * image the trace carries.
 */
inline ProgramRef
traceBinary(const TraceRef &trace)
{
    return ProgramRef(trace, &trace->binary());
}

/**
 * Layer @p scheme onto @p base_cfg: the single place the scheme/
 * predication knobs map onto a CoreConfig (shared by full and sampled
 * runs so both build bit-identical cores).
 */
core::CoreConfig resolveConfig(const SchemeConfig &scheme,
                               const core::CoreConfig &base_cfg);

/** Core oracle seed for @p profile (shared by full and sampled runs). */
inline std::uint64_t
coreSeed(const program::BenchmarkProfile &profile)
{
    return profile.seed ^ 0x0a11ce5ull;
}

/**
 * Run @p binary on a core configured per @p scheme. Statistics cover
 * [warmup, warmup + measure) committed instructions.
 */
RunResult run(const program::Program &binary,
              const program::BenchmarkProfile &profile,
              const SchemeConfig &scheme, std::uint64_t warmup_insts,
              std::uint64_t measure_insts);

/**
 * As above, but layering the scheme on top of @p base_cfg instead of the
 * default machine — the hook the experiment driver uses for core-config
 * override axes (ROB/queue sizing studies etc.). @p decoded optionally
 * shares a predecode of @p binary across runs (nullptr: the core
 * decodes privately); execution is bit-identical either way. With
 * @p trace the run REPLAYS the trace's recorded condition streams
 * instead of generating conditions (@p binary must be the trace's
 * embedded program); a replayed run is bit-identical to the run that
 * recorded the trace.
 */
RunResult run(const program::Program &binary,
              const program::BenchmarkProfile &profile,
              const SchemeConfig &scheme, const core::CoreConfig &base_cfg,
              std::uint64_t warmup_insts, std::uint64_t measure_insts,
              const program::DecodedProgram *decoded = nullptr,
              const program::TraceFile *trace = nullptr);

/** Convenience: build and run in one call. */
RunResult buildAndRun(const program::BenchmarkProfile &profile,
                      bool if_convert, const SchemeConfig &scheme,
                      std::uint64_t warmup_insts,
                      std::uint64_t measure_insts);

/**
 * Default measurement length: REPRO_INSTRUCTIONS env var, or 1,000,000.
 * (The paper simulates 100M SPEC instructions; the synthetic workloads
 * are stationary so ~1M is representative — see DESIGN.md §2.)
 */
std::uint64_t defaultInstructions();

/** Default warmup length: REPRO_WARMUP env var, or 150,000. */
std::uint64_t defaultWarmup();

/** Difference of two CoreStats snapshots (b - a, fieldwise). */
core::CoreStats statsDelta(const core::CoreStats &a,
                           const core::CoreStats &b);

} // namespace sim
} // namespace pp

#endif // PP_SIM_SIMULATOR_HH
