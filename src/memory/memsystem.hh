/**
 * @file
 * The whole memory hierarchy of the simulated machine (Table 1): split L1I
 * (32KB) / L1D (64KB), unified L2 (1MB), ITLB/DTLB (512 entries each) and
 * 120-cycle main memory.
 */

#ifndef PP_MEMORY_MEMSYSTEM_HH
#define PP_MEMORY_MEMSYSTEM_HH

#include <memory>

#include "memory/cache.hh"
#include "memory/tlb.hh"

namespace pp
{
namespace memory
{

/** Memory hierarchy parameters (defaults == the paper's Table 1). */
struct MemSystemConfig
{
    CacheConfig l1i{"l1i", 32 * 1024, 4, 64, 1, 12, 8};
    CacheConfig l1d{"l1d", 64 * 1024, 4, 64, 2, 12, 16};
    CacheConfig l2{"l2", 1024 * 1024, 16, 128, 8, 12, 8};
    TlbConfig itlb;
    TlbConfig dtlb;
    Cycle memLatency = 120;

    /**
     * Instruction and data live in one flat simulated address space;
     * data addresses are offset so the two streams do not alias.
     */
    Addr dataBase = 1ull << 32;
};

/** The assembled hierarchy. */
class MemSystem
{
  public:
    explicit MemSystem(const MemSystemConfig &config = MemSystemConfig());

    /** Fetch access at @p pc: returns data-ready cycle. */
    Cycle instAccess(Addr pc, Cycle now);

    /** Load/store access: returns data-ready cycle (stores: accept). */
    Cycle dataAccess(Addr addr, bool write, Cycle now);

    /** Reset all array state between runs. */
    void flushAll();

    const MemSystemConfig &config() const { return cfg; }

  private:
    MemSystemConfig cfg;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<Cache> l1i;
    std::unique_ptr<Cache> l1d;
    Tlb itlb;
    Tlb dtlb;
};

} // namespace memory
} // namespace pp

#endif // PP_MEMORY_MEMSYSTEM_HH
