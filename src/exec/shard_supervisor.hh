/**
 * @file
 * Fault-tolerant multi-process sweep execution.
 *
 * The ShardSupervisor partitions a deterministic spec list into
 * contiguous shards and runs each in a child worker process
 * (exec/subprocess.hh). Workers deliver through the result cache
 * (cache/result_cache.hh): each stores its range's cells there, one
 * self-checking object per cell, and the supervisor reads every cell
 * back under the key SweepEngine::run stored it by
 * (cache::cellKeyText, over each trace's content hash, which the
 * supervisor loads once per distinct trace). Shards are not
 * statically assigned to supervisor threads: they are started most
 * expensive first (leaseOrder(), by summed specCost()), each thread
 * taking the next one as it frees — so a cost-skewed matrix never
 * serializes behind one unlucky worker. Because specs order
 * deterministically and every result lands at its own index, the
 * merged result vector — and therefore the pp.sweep.v1 document
 * written from it — is byte-identical to a clean single-process run,
 * regardless of shard count, start order, failure schedule or retry
 * order.
 *
 * Resume is per cell: a shard whose cells all verify in the cache
 * starts no worker, whatever shard count stored them, and a worker
 * finds the cells of its range that verify and simulates the rest.
 * The cell object stores the full key (salt, every scheme, config,
 * sampling and window field, the trace's content hash), so a cell of
 * another build or spec is never taken.
 *
 * Failure taxonomy and policy:
 *  - crash          worker killed by a signal or exited nonzero
 *  - timeout        wall-clock deadline hit; worker SIGKILLed
 *  - corrupt-output a cell of the range missing from the cache, or
 *                   failing its object check, after a clean exit
 *  - corrupt-trace  worker reported a typed ArtifactError (exit code
 *                   kTraceErrorExit) for a trace or checkpoint set
 *
 * All classes are retried with exponential backoff — a shard re-runs
 * bit-identically from its spec range (and trace artifacts), so
 * retries are free and even a "corrupt" observation may be transient
 * (a torn concurrent write, a flaky disk). The caps differ: transient
 * classes get maxAttempts total; corrupt-trace gets at most
 * kCorruptTraceRetries extra attempts, because a genuinely damaged
 * artifact fails identically forever and should abort fast with the
 * typed message. Exhaustion is loud: fatal() naming the shard, its
 * spec range, the per-attempt failure history and the last error — a
 * run is never silently dropped.
 *
 * Observability: sweep.shard_retries / sweep.shard_failures.<class>
 * counters, sweep.shard_backoff_ms / sweep.shard_attempt_ms /
 * sweep.lease_batch_size histograms, sweep.result_cache_hits /
 * sweep.runs_simulated counters (cells found before launch, and cells
 * not), and per-attempt "shard_attempt" spans through the obs
 * registry/tracer.
 */

#ifndef PP_EXEC_SHARD_SUPERVISOR_HH
#define PP_EXEC_SHARD_SUPERVISOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/run_matrix.hh"
#include "exec/fault.hh"
#include "sim/simulator.hh"

namespace pp
{
namespace exec
{

/** Extra attempts a shard gets after a corrupt-trace failure. */
constexpr unsigned kCorruptTraceRetries = 1;

/** Cap on the exponential backoff between retries. */
constexpr std::uint64_t kBackoffMaxMs = 5000;

/** Supervisor policy knobs. */
struct ShardOptions
{
    /** Shard count (contiguous spec ranges; capped at the spec count). */
    std::size_t shards = 4;

    /** Concurrent worker processes; 0 = min(shards, hardware threads). */
    unsigned parallel = 0;

    /** Total attempts per shard for transient failures. */
    unsigned maxAttempts = 3;

    /** Per-attempt wall-clock deadline for a worker; 0 = none. */
    std::uint64_t timeoutMs = 120000;

    /** Exponential backoff between retries: base * 2^(attempt-1),
     *  capped at kBackoffMaxMs. */
    std::uint64_t backoffBaseMs = 100;

    /** The result cache workers store their cells in and the
     *  supervisor reads them from (created if missing). */
    std::string resultCacheDir = "shards";

    /**
     * Worker command; the supervisor appends
     * "--shard-range B:E --result-cache-dir DIR" per attempt. The
     * command must enumerate the same spec list as the supervisor: a
     * harness re-execs itself with its own matrix-defining flags
     * (bench/bench_common.hh). A worker that enumerates a different
     * list stores other cells, so the supervisor finds its range's
     * missing: corrupt output.
     */
    std::vector<std::string> workerCmd;

    /** --inject-fault spec forwarded to workers via PP_FAULT. */
    std::string faultSpec;
};

/** What one run() observed — the fault-injection tests assert on this. */
struct ShardStats
{
    std::uint64_t attempts = 0;       ///< worker processes launched
    std::uint64_t retries = 0;        ///< failed attempts that re-ran
    std::uint64_t resumedShards = 0;  ///< shards whose cells all verified
    std::uint64_t crashFailures = 0;
    std::uint64_t timeoutFailures = 0;
    std::uint64_t corruptOutputFailures = 0;
    std::uint64_t corruptTraceFailures = 0;

    /** Cells found in the result cache before their shard launched,
     *  and cells not found (left to a worker). */
    std::uint64_t resultCacheHits = 0;
    std::uint64_t runsSimulated = 0;
};

class ShardSupervisor
{
  public:
    explicit ShardSupervisor(ShardOptions opts);

    /**
     * Execute @p specs across worker processes; the returned results
     * align with @p specs. fatal() when any shard exhausts its attempt
     * budget (after every other shard settles).
     */
    std::vector<sim::RunResult> run(const std::vector<driver::RunSpec> &specs);

    const ShardStats &stats() const { return stats_; }

  private:
    ShardOptions opts_;
    FaultPlan plan_;
    ShardStats stats_;
};

} // namespace exec
} // namespace pp

#endif // PP_EXEC_SHARD_SUPERVISOR_HH
