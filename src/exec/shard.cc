#include "exec/shard.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "cache/result_cache.hh"
#include "common/bytestream.hh"
#include "common/logging.hh"
#include "driver/sweep_engine.hh"
#include "exec/fault.hh"

namespace pp
{
namespace exec
{

std::vector<ShardRange>
shardRanges(std::size_t n, std::size_t shards)
{
    std::vector<ShardRange> out;
    if (shards == 0)
        shards = 1;
    const std::size_t base = n / shards;
    const std::size_t extra = n % shards;
    std::size_t at = 0;
    for (std::size_t i = 0; i < shards && at < n; ++i) {
        const std::size_t len = base + (i < extra ? 1 : 0);
        if (len == 0)
            continue;
        out.emplace_back(at, at + len);
        at += len;
    }
    return out;
}

ShardRange
parseShardRange(const std::string &text)
{
    // Digits only: no sign, no blanks, no overflow.
    auto bound = [](const std::string &digits, std::size_t &out) {
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            return false;
        errno = 0;
        out = std::strtoull(digits.c_str(), nullptr, 10);
        return errno != ERANGE;
    };
    const std::size_t colon = text.find(':');
    ShardRange r{0, 0};
    if (colon == std::string::npos ||
        !bound(text.substr(0, colon), r.first) ||
        !bound(text.substr(colon + 1), r.second) || r.first >= r.second)
        fatal("bad --shard-range '" + text + "' (want B:E with B < E)");
    return r;
}

std::uint64_t
specCost(const driver::RunSpec &spec)
{
    const std::uint64_t window = spec.warmupInsts + spec.measureInsts;
    if (!spec.sampling.enabled())
        return window;
    // Windows the sampled run executes in detail, plus the functional
    // fast-forward over the rest of the region at a steep discount.
    const std::uint64_t windows =
        spec.measureInsts / spec.sampling.periodInsts + 1;
    return windows * spec.sampling.windowInsts() + window / 16;
}

std::vector<std::size_t>
leaseOrder(const std::vector<driver::RunSpec> &specs,
           const std::vector<ShardRange> &ranges)
{
    std::vector<std::uint64_t> cost(ranges.size(), 0);
    for (std::size_t i = 0; i < ranges.size(); ++i)
        for (std::size_t s = ranges[i].first; s < ranges[i].second; ++s)
            cost[i] += specCost(specs[s]);
    std::vector<std::size_t> order(ranges.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });
    return order;
}

void
runShardWorker(const std::vector<driver::RunSpec> &specs,
               ShardRange range, unsigned threads,
               const std::string &checkpoint_dir,
               const std::string &result_cache_dir)
{
    applyStartFault();
    const auto [begin, end] = range;
    if (begin >= end || end > specs.size()) {
        fatal("shard range [" + std::to_string(begin) + "," +
              std::to_string(end) + ") out of bounds (have " +
              std::to_string(specs.size()) + " specs)");
    }
    if (result_cache_dir.empty())
        fatal("a shard worker delivers through --result-cache-dir; "
              "none given");
    const std::vector<driver::RunSpec> slice(specs.begin() + begin,
                                             specs.begin() + end);
    driver::SweepOptions opts;
    opts.threads = threads;
    opts.checkpointDir = checkpoint_dir;
    opts.resultCacheDir = result_cache_dir;
    std::vector<sim::RunResult> results;
    try {
        results = driver::SweepEngine(opts).run(slice);
    } catch (const ArtifactError &e) {
        // A damaged or mis-keyed trace or checkpoint set: report it
        // distinctly so the supervisor classifies corrupt-trace, not
        // crash.
        std::fprintf(stderr, "corrupt artifact: %s\n", e.what());
        std::exit(kTraceErrorExit);
    }
    // The engine stored every cell; a run's traceHash is the one its
    // key was derived from.
    applyOutputFault(cache::ResultCache(result_cache_dir)
                         .objectPath(cache::cellKeyText(
                             slice.front(), results.front().traceHash)));
}

} // namespace exec
} // namespace pp
