/**
 * @file
 * Fault-tolerant multi-process sweep execution.
 *
 * The ShardSupervisor partitions a deterministic spec list into
 * contiguous shards, runs each shard in a child worker process
 * (exec/subprocess.hh), verifies the self-checking pp.shard.v1 fragment
 * each worker writes, and merges the results back at their spec
 * indices. Shards are not statically assigned to supervisor threads:
 * they are started most expensive first (leaseOrder(), by summed
 * specCost()), each thread taking the next one as it frees — so a
 * cost-skewed matrix never serializes behind one unlucky worker.
 * Because specs order deterministically and every result lands at its
 * own index, the merged result vector — and therefore the pp.sweep.v1
 * document written from it — is byte-identical to a clean
 * single-process run, regardless of shard count, start order, failure
 * schedule or retry order.
 *
 * Failure taxonomy and policy:
 *  - crash          worker killed by a signal or exited nonzero
 *  - timeout        wall-clock deadline hit; worker SIGKILLed
 *  - corrupt-output fragment missing, torn, unparseable, failing its
 *                   payload hash, or holding runs of other specs
 *  - corrupt-trace  worker reported a typed ArtifactError (exit code
 *                   kTraceErrorExit) for a trace or checkpoint set
 *
 * All classes are retried with exponential backoff — a shard re-runs
 * bit-identically from its spec range (and trace artifacts), so
 * retries are free and even a "corrupt" observation may be transient
 * (a torn concurrent write, a flaky disk). The caps differ: transient
 * classes get maxAttempts total; corrupt-trace gets at most
 * corruptTraceRetries extra attempts, because a genuinely damaged
 * artifact fails identically forever and should abort fast with the
 * typed message. Exhaustion is loud: fatal() naming the shard, its
 * spec range, the per-attempt failure history and the worker's last
 * stderr — a run is never silently dropped.
 *
 * Crash safety: fragments and sinks are written atomically
 * (common/atomic_io.hh), and a fragment is the only record that its
 * shard is done. A re-run supervisor (same work dir) takes every
 * fragment that verifies for its shard's range as that shard's result
 * and re-runs the rest.
 *
 * Observability: sweep.shard_retries / sweep.shard_failures.<class>
 * counters, sweep.shard_backoff_ms / sweep.shard_attempt_ms /
 * sweep.lease_batch_size histograms, aggregated worker
 * sweep.result_cache_hits / sweep.runs_simulated counters, and
 * per-attempt "shard_attempt" spans through the obs registry/tracer.
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

/** Supervisor policy knobs. */
struct ShardOptions
{
    /** Shard count (contiguous spec ranges; capped at the spec count). */
    std::size_t shards = 4;

    /** Concurrent worker processes; 0 = min(shards, hardware threads). */
    unsigned parallel = 0;

    /** Total attempts per shard for transient failures. */
    unsigned maxAttempts = 3;

    /** Extra attempts after a corrupt-trace failure (see file comment). */
    unsigned corruptTraceRetries = 1;

    /** Per-attempt wall-clock deadline for a worker; 0 = none. */
    std::uint64_t timeoutMs = 120000;

    /** Exponential backoff between retries: base * 2^(attempt-1),
     *  capped at backoffMaxMs. */
    std::uint64_t backoffBaseMs = 100;
    std::uint64_t backoffMaxMs = 5000;

    /** Fragment directory (created if missing). */
    std::string workDir = "shards";

    /**
     * Worker command; the supervisor appends
     * "--shard-range B:E --shard-out FILE" per attempt. The command
     * must enumerate the same spec list as the supervisor: a harness
     * re-execs itself with its own matrix-defining flags
     * (bench/bench_common.hh). A worker that enumerates a different
     * list fails the fragment's identity check as corrupt output.
     */
    std::vector<std::string> workerCmd;

    /** --inject-fault spec forwarded to workers via PP_FAULT. */
    std::string faultSpec;

    /**
     * Take a fragment a previous run left in workDir as its shard's
     * result when it verifies for the shard's range; off, every shard
     * re-runs.
     */
    bool resume = true;
};

/** What one run() observed — the fault-injection tests assert on this. */
struct ShardStats
{
    std::uint64_t attempts = 0;       ///< worker processes launched
    std::uint64_t retries = 0;        ///< failed attempts that re-ran
    std::uint64_t resumedShards = 0;  ///< shards served from fragments
    std::uint64_t crashFailures = 0;
    std::uint64_t timeoutFailures = 0;
    std::uint64_t corruptOutputFailures = 0;
    std::uint64_t corruptTraceFailures = 0;

    /** Aggregated worker result-cache behavior (pp.shard.v1 header
     *  fields; zero when workers run without --result-cache-dir). */
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
