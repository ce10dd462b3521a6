#include "memory/memsystem.hh"

namespace pp
{
namespace memory
{

MemSystem::MemSystem(const MemSystemConfig &config)
    : cfg(config), itlb(config.itlb), dtlb(config.dtlb)
{
    l2 = std::make_unique<Cache>(cfg.l2, nullptr, cfg.memLatency);
    l1i = std::make_unique<Cache>(cfg.l1i, l2.get(), cfg.memLatency);
    l1d = std::make_unique<Cache>(cfg.l1d, l2.get(), cfg.memLatency);
}

Cycle
MemSystem::instAccess(Addr pc, Cycle now)
{
    const Cycle tlb_extra = itlb.translate(pc);
    return l1i->access(pc, false, now + tlb_extra);
}

Cycle
MemSystem::dataAccess(Addr addr, bool write, Cycle now)
{
    const Addr phys = cfg.dataBase + addr;
    const Cycle tlb_extra = dtlb.translate(phys);
    return l1d->access(phys, write, now + tlb_extra);
}

void
MemSystem::flushAll()
{
    l2->flushAll();
    l1i->flushAll();
    l1d->flushAll();
    itlb.flushAll();
    dtlb.flushAll();
}

} // namespace memory
} // namespace pp
