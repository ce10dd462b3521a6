/**
 * @file
 * Shard partitioning and the shard worker.
 *
 * A shard is a contiguous spec range [begin, end) of a deterministic
 * RunMatrix enumeration. A worker process executes its range through
 * the SweepEngine with a result cache (cache/result_cache.hh), which
 * stores every cell as one self-checking object; it writes nothing
 * else. The supervisor (exec/shard_supervisor.hh) reads each cell back
 * from that cache under the key the engine stored it by.
 */

#ifndef PP_EXEC_SHARD_HH
#define PP_EXEC_SHARD_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "driver/run_matrix.hh"

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

/** A contiguous spec range [first, second). */
using ShardRange = std::pair<std::size_t, std::size_t>;

/**
 * Partition @p n specs into @p shards contiguous [begin, end) ranges,
 * sizes differing by at most one (earlier shards take the remainder).
 * Empty ranges are dropped, so at most n shards come back.
 */
std::vector<ShardRange> shardRanges(std::size_t n, std::size_t shards);

/**
 * Parse the "B:E" value of a worker's --shard-range flag, the one form
 * the supervisor appends; fatal() unless both are base-10 integers
 * with B < E.
 */
ShardRange parseShardRange(const std::string &text);

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
           const std::vector<ShardRange> &ranges);

/**
 * Worker-process body behind a harness's hidden --shard-range mode
 * (bench/bench_common.hh): apply any armed start fault (and an armed
 * trace fault to the slice's first trace), execute
 * @p range of @p specs on @p threads with @p result_cache_dir as the
 * engine's result cache, then apply any armed output fault to the
 * object of the range's first cell. A non-empty @p checkpoint_dir is
 * passed through to the engine's on-disk window-checkpoint cache, so
 * concurrent workers share one functional pass per workload. An
 * ArtifactError exits with kTraceErrorExit after printing the typed
 * message to stderr; success returns normally (the caller exits 0).
 */
void runShardWorker(const std::vector<driver::RunSpec> &specs,
                    ShardRange range, unsigned threads,
                    const std::string &checkpoint_dir,
                    const std::string &result_cache_dir);

} // namespace exec
} // namespace pp

#endif // PP_EXEC_SHARD_HH
