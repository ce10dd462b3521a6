/**
 * @file
 * Register rename map + physical register readiness (one per register
 * class), and the Predicate Physical Register File (PPRF) that carries the
 * paper's per-entry prediction state (Figure 3): value, speculative bit,
 * confidence bit and ROB pointer.
 */

#ifndef PP_CORE_REGFILE_HH
#define PP_CORE_REGFILE_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pp
{
namespace core
{

/** Cycle value meaning "not ready yet". */
constexpr Cycle neverReady = std::numeric_limits<Cycle>::max();

/**
 * A rename map (RAT) plus free list plus per-physical-register readiness
 * timestamps for one register class.
 */
class RenameMap
{
  public:
    RenameMap(unsigned num_arch, unsigned num_phys)
        : rat(num_arch), readyCycle(num_phys, 0)
    {
        panicIfNot(num_phys > num_arch, "need more phys than arch regs");
        for (RegIndex l = 0; l < num_arch; ++l)
            rat[l] = l;
        for (PhysRegIndex p = static_cast<PhysRegIndex>(num_phys); p-- >
             num_arch;)
            freeList.push_back(p);
    }

    /** At least @p n physical registers available. */
    bool hasFree(unsigned n = 1) const { return freeList.size() >= n; }

    /** Current mapping of logical register @p l. */
    PhysRegIndex lookup(RegIndex l) const { return rat[l]; }

    /** Map @p l to a fresh physical register (caller saves the old one). */
    PhysRegIndex
    allocate(RegIndex l)
    {
        panicIfNot(!freeList.empty(), "rename: free list empty");
        const PhysRegIndex p = freeList.back();
        freeList.pop_back();
        rat[l] = p;
        readyCycle[p] = neverReady;
        return p;
    }

    /** Squash undo: restore the mapping and free the new register. */
    void
    restore(RegIndex l, PhysRegIndex old_phys, PhysRegIndex new_phys)
    {
        rat[l] = old_phys;
        freeList.push_back(new_phys);
    }

    /** Commit: release the previous mapping of a redefined register. */
    void release(PhysRegIndex p) { freeList.push_back(p); }

    bool
    isReady(PhysRegIndex p, Cycle now) const
    {
        return p == invalidPhysReg || readyCycle[p] <= now;
    }

    void setReady(PhysRegIndex p, Cycle c) { readyCycle[p] = c; }

    std::size_t freeCount() const { return freeList.size(); }

  private:
    std::vector<PhysRegIndex> rat;
    std::vector<PhysRegIndex> freeList;
    std::vector<Cycle> readyCycle;
};

/** One PPRF entry: Figure 3 of the paper. */
struct PprfEntry
{
    /** Best-known value: the prediction until the compare executes. */
    bool value = false;

    /** True from prediction write until the computed value arrives. */
    bool speculative = false;

    /** A prediction was written for this register. */
    bool hasPrediction = false;

    /** Confidence bit attached to the prediction. */
    bool confident = false;

    /** First speculative consumer (flush point on misprediction). */
    bool robPtrValid = false;
    InstSeqNum robPtr = invalidSeqNum;
    std::uint32_t robPtrSlot = 0; ///< ROB ring slot of that consumer

    /** Producing compare (for history-repair bookkeeping). */
    InstSeqNum producerSeq = invalidSeqNum;

    /** Set at compare execution when the prediction was wrong. */
    bool mispredicted = false;

    /** Timing: when the *computed* value is available to consumers. */
    Cycle readyCycle = 0;
};

/**
 * Predicate rename map + physical register file. Physical register 0 is
 * the hardwired true predicate p0: always ready, value true, never
 * reallocated.
 */
class Pprf
{
  public:
    Pprf(unsigned num_arch, unsigned num_phys)
        : map(num_arch, num_phys), entries(num_phys)
    {
        entries[0].value = true;
        entries[0].readyCycle = 0;
    }

    PhysRegIndex lookup(RegIndex l) const { return map.lookup(l); }

    /** Allocate a fresh entry for a (non-p0) predicate destination. */
    PhysRegIndex
    allocate(RegIndex l, InstSeqNum producer)
    {
        const PhysRegIndex p = map.allocate(l);
        entries[p] = PprfEntry{};
        entries[p].producerSeq = producer;
        entries[p].readyCycle = neverReady;
        return p;
    }

    bool hasFree(unsigned n = 1) const { return map.hasFree(n); }

    void
    restore(RegIndex l, PhysRegIndex old_phys, PhysRegIndex new_phys)
    {
        map.restore(l, old_phys, new_phys);
    }

    void release(PhysRegIndex p) { map.release(p); }

    PprfEntry &entry(PhysRegIndex p) { return entries[p]; }
    const PprfEntry &entry(PhysRegIndex p) const { return entries[p]; }

    /** Write a prediction at rename (Figure 2, producer side). */
    void
    writePrediction(PhysRegIndex p, bool predicted, bool confident)
    {
        PprfEntry &e = entries[p];
        e.value = predicted;
        e.speculative = true;
        e.hasPrediction = true;
        e.confident = confident;
        e.mispredicted = false;
    }

    /** Write the computed value at compare execution. */
    void
    writeComputed(PhysRegIndex p, bool value, Cycle when)
    {
        PprfEntry &e = entries[p];
        if (e.hasPrediction && e.value != value)
            e.mispredicted = true;
        e.value = value;
        e.speculative = false;
        e.readyCycle = when;
    }

  private:
    RenameMap map;
    std::vector<PprfEntry> entries;
};

} // namespace core
} // namespace pp

#endif // PP_CORE_REGFILE_HH
