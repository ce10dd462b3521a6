/**
 * @file
 * Shard partitioning and the pp.shard.v1 fragment format.
 *
 * A shard is a contiguous spec range [begin, end) of a deterministic
 * RunMatrix enumeration. A worker process executes its range and writes
 * one self-checking JSON fragment:
 *
 *   {"schema":"pp.shard.v1","begin":B,"end":E,
 *    "payload_hash":"<fnv1a 16hex>","runs":[...]}
 *
 * The runs array reuses the pp.sweep.v1 run-object emitter
 * (driver::writeRunJson), so a fragment's run objects are byte-
 * identical to what the merged document re-emits; payload_hash covers
 * the runs array's exact bytes, so truncation or bit rot anywhere in
 * the payload is detected before a result is trusted. Numbers round-
 * trip exactly: doubles are %.17g on both sides, u64 counters are far
 * below 2^53.
 */

#ifndef PP_EXEC_SHARD_HH
#define PP_EXEC_SHARD_HH

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "driver/run_matrix.hh"
#include "sim/simulator.hh"

namespace pp
{
namespace exec
{

/**
 * Exit code a worker uses for a corrupt, unloadable or mis-keyed
 * artifact — a trace or a window-checkpoint set, either one an
 * ArtifactError (common/bytestream.hh) — so the supervisor can classify
 * corrupt-artifact separately from a plain crash.
 */
constexpr int kTraceErrorExit = 3;

/** A fragment that fails parsing or its self-check. */
class ShardError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Partition @p n specs into @p shards contiguous [begin, end) ranges,
 * sizes differing by at most one (earlier shards take the remainder).
 * Empty ranges are dropped, so at most n shards come back.
 */
std::vector<std::pair<std::size_t, std::size_t>>
shardRanges(std::size_t n, std::size_t shards);

/**
 * Deterministic relative cost estimate of one spec, in detailed-window
 * instructions: a full run charges its whole window; a sampled run
 * charges its detailed windows plus a fast-forward discount. Purely a
 * scheduling annotation — leaseOrder() ranks shards by it so expensive
 * full-sim cells start first; results never depend on it.
 */
std::uint64_t specCost(const driver::RunSpec &spec);

/**
 * The order the supervisor starts shards in: indices into @p ranges by
 * descending summed specCost() of each range, ties broken by shard
 * index.
 */
std::vector<std::size_t>
leaseOrder(const std::vector<driver::RunSpec> &specs,
           const std::vector<std::pair<std::size_t, std::size_t>> &ranges);

/**
 * Result-cache statistics one worker observed, carried in optional
 * pp.shard.v1 header fields (outside payload_hash coverage — the hash
 * pins the runs array only) so the supervisor can aggregate real cache
 * behavior across workers. Readers treat absent fields as zero.
 */
struct ShardWorkerStats
{
    std::uint64_t resultCacheHits = 0; ///< cells served from the cache
    std::uint64_t runsSimulated = 0;   ///< cells actually executed
};

/**
 * Serialize one executed shard ([begin, begin + results.size()) of the
 * full spec list) as a pp.shard.v1 document. @p specs is the shard's
 * slice, aligned with @p results. Non-null @p stats adds the worker's
 * result-cache header fields.
 */
std::string
shardFragmentJson(std::size_t begin,
                  const std::vector<driver::RunSpec> &specs,
                  const std::vector<sim::RunResult> &results,
                  const ShardWorkerStats *stats = nullptr);

/**
 * Parse and verify a pp.shard.v1 document covering exactly
 * [expect_begin, expect_end) of @p specs; returns the shard's results
 * in spec order. Each run object must carry the identity of the spec
 * at its index (benchmark, if-conversion, scheme, config, seed,
 * windows, sampling), so a worker that enumerated a different spec
 * list cannot slip another cell's numbers into the merge. Throws
 * ShardError on schema/range/identity mismatch, a payload-hash
 * failure, or any structural problem — the supervisor classifies all
 * of them as corrupt output. Non-null @p stats receives the worker's
 * result-cache header fields (zeros when absent).
 */
std::vector<sim::RunResult>
readShardFragment(const std::string &path,
                  const std::vector<driver::RunSpec> &specs,
                  std::size_t expect_begin, std::size_t expect_end,
                  ShardWorkerStats *stats = nullptr);

/**
 * Worker-process body behind a harness's hidden --shard-range /
 * --shard-out self-exec mode (bench/bench_common.hh): apply any armed
 * start fault, execute specs [begin, end) on @p threads, write the
 * fragment to @p out_path atomically, then apply any armed output
 * fault. A non-empty @p checkpoint_dir is passed through to the
 * engine's on-disk window-checkpoint cache, so concurrent workers
 * share one functional pass per workload; @p result_cache_dir likewise
 * to the engine's content-addressed result cache
 * (cache/result_cache.hh), and the worker's real hit/simulated counts
 * ride in the fragment header for supervisor aggregation. An
 * ArtifactError exits with kTraceErrorExit after printing the typed
 * message to stderr; success returns normally (the caller exits 0).
 */
void runShardWorker(const std::vector<driver::RunSpec> &specs,
                    std::size_t begin, std::size_t end, unsigned threads,
                    const std::string &out_path,
                    const std::string &checkpoint_dir = "",
                    const std::string &result_cache_dir = "");

} // namespace exec
} // namespace pp

#endif // PP_EXEC_SHARD_HH
