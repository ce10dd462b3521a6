#include "memory/cache.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace pp
{
namespace memory
{

Cache::Cache(const CacheConfig &config, Cache *next_level,
             Cycle memory_latency)
    : cfg(config), next(next_level), memLatency(memory_latency)
{
    panicIfNot(isPowerOfTwo(cfg.blockBytes), "block size must be 2^n");
    panicIfNot(cfg.assoc >= 1, "associativity must be >= 1");
    numSets = cfg.sizeBytes / (cfg.blockBytes * cfg.assoc);
    if (numSets < 1 || !isPowerOfTwo(numSets))
        panic(cfg.name + ": set count must be a power of two");
    lines.assign(numSets * cfg.assoc, Line{});
    mshrBusyUntil.assign(std::max(1u, cfg.mshrs), 0);
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr / cfg.blockBytes) & (numSets - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / cfg.blockBytes / numSets;
}

bool
Cache::probe(Addr addr) const
{
    const std::size_t base = setIndex(addr) * cfg.assoc;
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < cfg.assoc; ++w)
        if (lines[base + w].valid && lines[base + w].tag == tag)
            return true;
    return false;
}

Cycle
Cache::reserveMshr(Cycle now)
{
    auto it = std::min_element(mshrBusyUntil.begin(), mshrBusyUntil.end());
    const Cycle start = std::max(now, *it);
    return start;
}

Cycle
Cache::access(Addr addr, bool write, Cycle now)
{
    const std::size_t base = setIndex(addr) * cfg.assoc;
    const Addr tag = tagOf(addr);

    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Line &line = lines[base + w];
        if (line.valid && line.tag == tag) {
            ++numHits;
            line.lruStamp = ++lruCounter;
            if (write)
                line.dirty = true;
            return now + cfg.hitLatency;
        }
    }

    // Miss: reserve an MSHR, fetch from below, fill with LRU eviction.
    ++numMisses;
    const Cycle start = reserveMshr(now);
    const Cycle fill_done = next != nullptr
        ? next->access(addr, false, start + cfg.hitLatency)
        : start + cfg.hitLatency + memLatency;

    // Occupy the granted MSHR until the fill returns.
    auto it = std::min_element(mshrBusyUntil.begin(), mshrBusyUntil.end());
    *it = fill_done;

    // Victim selection.
    unsigned victim = 0;
    std::uint64_t best = ~0ull;
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        const Line &line = lines[base + w];
        if (!line.valid) {
            victim = w;
            best = 0;
            break;
        }
        if (line.lruStamp < best) {
            best = line.lruStamp;
            victim = w;
        }
    }
    Line &line = lines[base + victim];
    if (line.valid && line.dirty) {
        ++numWritebacks;
        // Write-back absorbed by the write buffer; charged to the lower
        // level's bandwidth model implicitly (latency-compositional).
        if (next != nullptr)
            next->access((line.tag * numSets + (base / cfg.assoc)) *
                         cfg.blockBytes, true, fill_done);
    }
    line.valid = true;
    line.dirty = write;
    line.tag = tag;
    line.lruStamp = ++lruCounter;

    return fill_done;
}

void
Cache::flushAll()
{
    std::fill(lines.begin(), lines.end(), Line{});
    std::fill(mshrBusyUntil.begin(), mshrBusyUntil.end(), 0);
}

void
Cache::registerStats(stats::Group &group) const
{
    group.addFormula(cfg.name + ".hits",
                     [this] { return double(numHits); });
    group.addFormula(cfg.name + ".misses",
                     [this] { return double(numMisses); });
    group.addFormula(cfg.name + ".missRate", [this] {
        const double total = double(numHits + numMisses);
        return total == 0 ? 0.0 : double(numMisses) / total;
    });
}

} // namespace memory
} // namespace pp
