/**
 * @file
 * Thread-pooled sweep execution.
 *
 * The SweepEngine takes the RunSpecs of a RunMatrix and executes them on
 * a pool of worker threads. Three properties make parallel sweeps safe
 * and reproducible:
 *
 *  - Binary cache: each (benchmark, if-convert) binary is generated and
 *    if-converted exactly once and shared immutably (sim::ProgramRef)
 *    across every run that needs it, on any thread. The binary's
 *    predecoded micro-op stream (sim::DecodedRef, program/decoded.hh)
 *    is cached right beside it under the same key, so every run of a
 *    cell shares one decode instead of re-decoding per core.
 *  - RNG isolation: a run's randomness is derived solely from its
 *    profile seed (program generation) and the core's own seed; no
 *    global RNG exists, so runs are independent of scheduling.
 *  - Deterministic ordering: results are stored at the index of their
 *    spec, so the output is identical for any thread count — including
 *    byte-identical JSON.
 */

#ifndef PP_DRIVER_SWEEP_ENGINE_HH
#define PP_DRIVER_SWEEP_ENGINE_HH

#include <cstddef>
#include <vector>

#include "driver/run_matrix.hh"
#include "replay/predictor_replay.hh"
#include "sim/simulator.hh"

namespace pp
{
namespace driver
{

/** Execution knobs for one sweep. */
struct SweepOptions
{
    /** Worker threads; 0 = one per hardware thread. */
    unsigned threads = 0;

    /**
     * Keep one live progress line on stderr: completed/total phase-2
     * jobs (runs, sampled windows or replay config batches) and an ETA.
     */
    bool progress = false;

    /**
     * Record one trace artifact (program/trace.hh) per generated binary
     * into this directory (created if missing), named
     * "<binaryKey>.pptrace". The recorded horizon covers the largest
     * run window of the sweep plus kTraceRecordSlack, so any cell of
     * the same matrix replays from it. Ignored for specs that already
     * name a tracePath (those replay; there is nothing new to record).
     * Fatal, before anything is built, when two profiles that differ
     * share a binaryKey (and so one file name).
     */
    std::string recordTraceDir;

    /**
     * On-disk cache for window-checkpoint sets (pp.ckpt.v2, see
     * sampling/window_checkpoint.hh): each distinct (workload, region,
     * policy) set is loaded from "<hash>.ppckpt" here when present,
     * built and atomically stored otherwise — so repeated sweeps (and
     * concurrent shard workers sharing the directory) skip the
     * functional pass. A file of another format version is rebuilt and
     * replaced, with a warning; any other ArtifactError, or a set that
     * does not fit its binary (Mismatch), fails run(). Empty: every set is built, none stored. Either
     * way a set is held in memory only while its windows run (see
     * run()). Serialization round-trips exactly, so results are
     * byte-identical either way, and the in-memory counters
     * deliberately ignore disk hits (they stay a pure function of the
     * spec list).
     */
    std::string checkpointDir;

    /**
     * Content-addressed result cache (pp.rcache.v2, see
     * cache/result_cache.hh): before any run job is dispatched, each
     * cell's full semantic key (workload identity, scheme, config,
     * sampling policy, window, schema version, code salt) is probed
     * here; a hit replays the cell's exact emitter bytes instead of
     * simulating, and misses are stored after the merge — so a warm
     * rerun of the same matrix executes zero simulations yet emits a
     * byte-identical document. Shared safely by concurrent shard
     * workers (atomic writes). Empty: no result caching. Real cache
     * behavior is reported via resultCacheUse() and the obs metrics
     * (sweep.result_cache_*); the summary counters stay a pure
     * function of the spec list.
     */
    std::string resultCacheDir;
};

/**
 * Shared-cache statistics of one engine run, surfaced in the
 * pp.sweep.v1 summary block. Deterministic: a pure function of the
 * spec list, independent of thread count and scheduling.
 */
struct SweepCounters
{
    /** Distinct binaries generated (== decoded programs built). */
    std::uint64_t binariesBuilt = 0;

    /** Distinct predecoded micro-op streams built (one per binary). */
    std::uint64_t decodedPrograms = 0;

    /** Runs served an already-decoded stream from the shared cache. */
    std::uint64_t decodedCacheHits = 0;

    /**
     * Distinct trace artifacts attached to the sweep: loaded from disk
     * (replay) or freshly recorded (record mode). The symmetric
     * definition keeps a recording sweep's summary byte-identical to
     * the sweep that later replays its artifacts.
     */
    std::uint64_t tracesLoaded = 0;

    /** Runs served an already-attached trace from the shared cache. */
    std::uint64_t traceCacheHits = 0;

    /**
     * Distinct window-checkpoint sets the sweep needs: one per
     * (workload, region, policy) over the checkpoint-eligible sampled
     * specs. Like the trace counters, deliberately independent of the
     * on-disk cache (a disk hit still counts as "built" here), so a
     * sweep reports the same summary bytes cold or warm.
     */
    std::uint64_t checkpointsBuilt = 0;

    /** Eligible sampled runs served an already-built checkpoint set. */
    std::uint64_t checkpointCacheHits = 0;

    /**
     * Distinct result-cache keys among the specs (one cacheable result
     * per distinct cell). Like checkpointsBuilt, deliberately
     * independent of disk-cache state — a disk hit still counts as
     * cached here — so sharded merges and warm reruns report the same
     * summary bytes. Real hit/miss behavior lives in
     * SweepEngine::resultCacheUse() and the obs metrics.
     */
    std::uint64_t resultsCached = 0;

    /** Specs sharing an earlier spec's result-cache key. */
    std::uint64_t resultCacheHits = 0;
};

/**
 * Real result-cache behavior of the last run()/runReplay() — NOT part
 * of any deterministic document (that is what SweepCounters is for):
 * these tell you whether silicon was actually spent.
 */
struct ResultCacheUse
{
    std::uint64_t hits = 0;      ///< cells served from the cache
    std::uint64_t misses = 0;    ///< cells not served
    std::uint64_t stores = 0;    ///< cells stored after execution
    std::uint64_t corrupt = 0;   ///< damaged entries (recovered as misses)
    std::uint64_t simulated = 0; ///< cells actually executed
};

/**
 * The SweepCounters an engine run over @p specs reports (@p record =
 * "is a record-traces directory set"). A pure function of the spec
 * list, shared with the shard supervisor: a merged multi-process sweep
 * computes its summary from the full local spec list and gets the same
 * bytes a clean single-process run writes.
 */
SweepCounters sweepCountersFor(const std::vector<RunSpec> &specs,
                               bool record);

/**
 * Point every workload (RunSpecs or replay workloads alike) at its
 * trace artifact under @p dir (the engine's record-mode naming:
 * "<binaryKey>.pptrace"), switching the sweep to replay. No-op when
 * @p dir is empty.
 */
template <typename W>
void
applyTraceDir(std::vector<W> &workloads, const std::string &dir)
{
    if (dir.empty())
        return;
    for (sim::Workload &w : workloads)
        w.tracePath = dir + "/" + w.binaryKey() + ".pptrace";
}

class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions opts = SweepOptions{});

    /** Execute every cell of @p matrix; results align with specs(). */
    std::vector<sim::RunResult> run(const RunMatrix &matrix);

    /**
     * Execute an explicit spec list; results align with @p specs.
     * Window-checkpoint sets stream through the pool: each is built or
     * loaded when a worker runs out of window jobs and freed once its
     * last window merges, so at most one set per worker is resident.
     */
    std::vector<sim::RunResult> run(const std::vector<RunSpec> &specs);

    /**
     * Execute a predictor-replay sweep (replay/predictor_replay.hh):
     * one committed-outcome stream per workload — extracted once from
     * the cached binary/decoded/trace, like the binary cache of run() —
     * with the config list fanned out across the pool in batches that
     * each make one pass over the shared stream. Results align with
     * matrix.workloads(); each result's configs align with
     * matrix.configs(). Byte-identical serialization at any thread
     * count (batched cells see identical inputs by construction).
     * recordTraceDir records one artifact per workload, as in run().
     */
    std::vector<replay::ReplayWorkloadResult>
    runReplay(const replay::ReplayMatrix &matrix);

    /** Replay an explicit (workloads, configs) pair; see above. */
    std::vector<replay::ReplayWorkloadResult>
    runReplay(const std::vector<replay::ReplayWorkloadSpec> &workloads,
              const std::vector<replay::ReplayConfig> &configs);

    /** Shared binary/decode cache statistics of the last run(). */
    const SweepCounters &counters() const { return counters_; }

    /** Threads the last run() actually used. */
    unsigned threadsUsed() const { return threadsUsed_; }

    /** Real result-cache behavior of the last run()/runReplay(). */
    const ResultCacheUse &resultCacheUse() const
    { return resultCacheUse_; }

  private:
    SweepOptions opts_;
    SweepCounters counters_;
    ResultCacheUse resultCacheUse_;
    unsigned threadsUsed_ = 0;
};

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_SWEEP_ENGINE_HH
