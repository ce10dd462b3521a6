/**
 * @file
 * Set-associative cache timing model with LRU replacement, write-back /
 * write-allocate policy, MSHR-limited outstanding misses and a write
 * buffer, per the paper's Table 1.
 *
 * The model is latency-compositional: an access returns the cycle at which
 * its data is available, recursively charging lower levels on misses.
 * MSHR occupancy bounds miss-level parallelism: when all MSHRs are busy
 * the access is delayed until one frees.
 */

#ifndef PP_MEMORY_CACHE_HH
#define PP_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace pp
{
namespace memory
{

/** Configuration of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 4;
    unsigned blockBytes = 64;
    Cycle hitLatency = 2;
    unsigned mshrs = 12;        ///< max outstanding primary misses
    unsigned writeBuffers = 16; ///< outstanding evictions/writes
};

/**
 * One cache level. The next level is either another Cache or (when
 * nullptr) main memory with a fixed latency.
 */
class Cache
{
  public:
    /**
     * @param config level parameters
     * @param next_level lower-level cache, or nullptr for main memory
     * @param memory_latency main-memory latency (used when next is null)
     */
    Cache(const CacheConfig &config, Cache *next_level,
          Cycle memory_latency);

    /**
     * Access @p addr at cycle @p now.
     * @param write true for stores / dirty fills
     * @return cycle at which the data is available to the requester
     */
    Cycle access(Addr addr, bool write, Cycle now);

    /** True if @p addr currently hits (no state change). */
    bool probe(Addr addr) const;

    /** Invalidate everything (between experiment runs). */
    void flushAll();

    /** @name Statistics */
    /// @{
    std::uint64_t hits() const { return numHits; }
    std::uint64_t misses() const { return numMisses; }
    std::uint64_t writebacks() const { return numWritebacks; }
    /// @}

    const CacheConfig &config() const { return cfg; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    /** Reserve an MSHR from @p now; returns the cycle it is granted. */
    Cycle reserveMshr(Cycle now);

    CacheConfig cfg;
    Cache *next;
    Cycle memLatency;

    std::size_t numSets;
    std::vector<Line> lines; ///< numSets * assoc, set-major
    std::uint64_t lruCounter = 0;

    /** Completion cycles of in-flight misses (bounded by cfg.mshrs). */
    std::vector<Cycle> mshrBusyUntil;

    std::uint64_t numHits = 0;
    std::uint64_t numMisses = 0;
    std::uint64_t numWritebacks = 0;
};

} // namespace memory
} // namespace pp

#endif // PP_MEMORY_CACHE_HH
