/**
 * @file
 * The out-of-order core: an execution-driven, cycle-level model of the
 * paper's eight-stage machine (Table 1).
 *
 * Stage evaluation per cycle runs back-to-front (completions, commit,
 * issue, rename, fetch) so that same-cycle resource reuse behaves like
 * hardware. Correct-path fetch consumes an in-order oracle (the functional
 * emulator); wrong-path fetch reads the static image and consumes real
 * resources until the misprediction flush (DESIGN.md §5).
 */

#ifndef PP_CORE_CORE_HH
#define PP_CORE_CORE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "core/bpu.hh"
#include "core/config.hh"
#include "core/corestats.hh"
#include "core/dyninst.hh"
#include "core/regfile.hh"
#include "core/rob.hh"
#include "memory/memsystem.hh"
#include "program/emulator.hh"
#include "program/program.hh"

namespace pp
{
namespace core
{

/** The simulated processor. */
class OoOCore
{
  public:
    /**
     * @param prog program to run (must outlive the core)
     * @param cfg core configuration
     * @param seed seed for the functional oracle's stochastic conditions
     * @param decoded shared predecode of @p prog for the oracle's hot
     *        loop, or nullptr to decode privately (see decoded.hh)
     */
    OoOCore(const program::Program &prog, const CoreConfig &cfg,
            std::uint64_t seed,
            const program::DecodedProgram *decoded = nullptr,
            const program::TraceFile *trace = nullptr);

    /**
     * As above, but resume the functional oracle from @p resume, so the
     * detailed simulation starts mid-program (sampled simulation).
     * Microarchitectural state (predictors, caches, rename) starts cold
     * exactly as at a normal construction; only architectural state is
     * restored. A checkpoint taken before the first instruction yields a
     * core bit-identical to the plain constructor.
     *
     * The oracle restores @p resume into @p segment when it is a data
     * segment an earlier core handed back (releaseSegment()) at this
     * program's size, copying only the pages that differ; otherwise it
     * allocates a fresh segment (see program::Emulator).
     */
    OoOCore(const program::Program &prog, const CoreConfig &cfg,
            std::uint64_t seed,
            const program::Emulator::Checkpoint &resume,
            const program::DecodedProgram *decoded = nullptr,
            const program::TraceFile *trace = nullptr,
            program::Emulator::Segment segment = {});

    /** Run until @p max_committed instructions have committed. */
    void run(std::uint64_t max_committed);

    /** Advance exactly one cycle (tests). */
    void tick();

    /** @name Sampled simulation (see sampling/) */
    /// @{
    /**
     * Retire or squash everything in flight (fetch frozen meanwhile),
     * leaving the machine at a committed architectural boundary. No-op
     * when the pipeline is already empty.
     */
    void drainPipeline();

    /**
     * Committed program-order position: architectural instructions
     * consumed so far by commit and fastForward() together. Meaningful
     * between windows, i.e. when the pipeline is drained.
     */
    std::uint64_t programPosition() const { return oracleBase; }

    /**
     * Advance architectural state by @p n instructions without
     * simulating cycles (requires a drained pipeline). Architectural
     * predicate state and the return-address stack always stay in sync;
     * with @p warm_tables the caches, direction predictors and the
     * predicate predictor are additionally trained functionally along
     * the way, as if every instruction fetched and resolved in order
     * (SMARTS functional warming). Stats and the cycle counter do not
     * advance.
     */
    void fastForward(std::uint64_t n, bool warm_tables);

    /**
     * Replay a recorded functional-warming event stream (see
     * program/warm_stream.hh) through this core's caches and
     * predictors. The checkpoint-resume constructor plus warmReplay()
     * of the horizon recorded at build time reproduces, through this
     * core's own tables, the warming a live fastForward(horizon, true)
     * over the same span would perform — which is what makes one
     * recorded stream serve every scheme. Call before the first
     * detailed cycle (the stream is applied at the current cycle).
     * Branch and Compare events must name instructions of this core's
     * program (WindowCheckpointSet::validate checks a loaded set).
     */
    void warmReplay(const std::vector<std::uint32_t> &events);
    /// @}

    /** Collected statistics. */
    const CoreStats &coreStats() const { return stats_; }

    /** Memory hierarchy (for cache statistics). */
    const memory::MemSystem &memSystem() const { return mem; }

    /** Current cycle. */
    Cycle cycle() const { return now; }

    const CoreConfig &config() const { return cfg; }

    /**
     * Hand the oracle's data segment back for a later core to adopt.
     * This core must not run afterwards.
     */
    program::Emulator::Segment
    releaseSegment() &&
    {
        return std::move(emu).releaseSegment();
    }

  private:
    /** The plain constructor, its oracle executing on @p segment. */
    OoOCore(const program::Program &prog, const CoreConfig &cfg,
            std::uint64_t seed, const program::DecodedProgram *decoded,
            const program::TraceFile *trace,
            program::Emulator::Segment segment);

    /** @name Pipeline stages (evaluated back to front each cycle) */
    /// @{
    void processCompletions();
    void doCommit();
    void doIssue();
    void doRename();
    void doFetch();
    /// @}

    /** @name Stage helpers */
    /// @{
    bool renameOne();
    void renameBranch(DynInst &d);
    void renamePredicated(DynInst &d);
    Cycle executeLatency(const DynInst &d) const;
    void completeCompare(DynInst &d);
    void completeBranch(DynInst &d);
    void commitTrain(DynInst &d);
    /// @}

    /** @name Event-driven wakeup */
    /// @{
    /**
     * Register the renamed instruction with the scheduler: count its
     * unready sources, enlist on the producers' waiter lists, and move
     * it straight to its issue queue's ready list when nothing is
     * pending.
     */
    void enqueueForIssue(DynInst &d);

    /**
     * Producer broadcast: decrement every live waiter's pending count
     * and promote those that reach zero to their ready list. Squashed
     * waiters are detected via their stale (slot, seq) reference and
     * dropped. The list is consumed.
     */
    void wakeWaiters(std::vector<RobRef> &waiters);

    std::vector<DynInst *> &readyList(IqClass c);
    unsigned &iqCount(IqClass c);

    /**
     * Ready lists are kept seq-sorted without any per-cycle sort:
     * rename-time entries carry the globally highest seq so far and
     * append at the tail; wakeups (older instructions) insert at their
     * sorted position. Issue-time compaction and squash pruning both
     * preserve order.
     */
    void pushReadyAtRename(DynInst *d);
    void pushReadyAtWakeup(DynInst *d);

    /**
     * File a completion event for @p d in the calendar bucket of cycle
     * max(@p done, now + 1): the next drain is now + 1, so a zero-latency
     * completion joins that cycle's events.
     */
    void scheduleCompletion(const DynInst &d, Cycle done);
    /// @}

    /** @name Flush machinery */
    /// @{
    /**
     * Squash every in-flight instruction with seq >= @p first_bad, restore
     * rename maps / predictor histories / RAS, rewind the oracle cursor,
     * and redirect fetch to @p new_pc after @p resume_delay cycles.
     */
    void squashFrom(InstSeqNum first_bad, Addr new_pc, Cycle resume_delay);
    void undoInst(DynInst &d);
    void sweepQueues(InstSeqNum first_bad);
    /// @}

    /** @name Oracle management (inline: one call per fetched inst) */
    /// @{
    /**
     * Materialize records through @p idx. The emulator fills the ring
     * in basic-block batches, so it typically runs a few instructions
     * ahead of fetch; prefetched records are consumed later by fetch or
     * by fastForward(), never discarded.
     */
    void
    ensureOracle(std::uint64_t idx)
    {
        const std::uint64_t end = oracleBase + oracleRing.size();
        if (idx >= end)
            emu.produce(oracleRing, idx + 1 - end);
    }

    const program::ExecRecord &
    oracleAt(std::uint64_t idx)
    {
        ensureOracle(idx);
        return oracleRing.at(static_cast<std::size_t>(idx - oracleBase));
    }

    void
    trimOracle(std::uint64_t committed_idx)
    {
        while (oracleBase <= committed_idx && !oracleRing.empty()) {
            oracleRing.popFront();
            ++oracleBase;
        }
    }
    /// @}

    const program::Program &program;
    CoreConfig cfg;
    memory::MemSystem mem;
    program::Emulator emu;
    Bpu bpu;

    /** @name Rename state */
    /// @{
    RenameMap intMap;
    RenameMap fpMap;
    Pprf pprf;
    /// @}

    /**
     * Store-queue entry: the address state loads poll for conservative
     * disambiguation, cached flat so the per-load scan never touches the
     * ROB. Kept in rename (= sequence) order; absolute position
     * @ref DynInst::sqPos minus @ref sqBase indexes the deque.
     */
    struct StoreRecord
    {
        InstSeqNum seq = invalidSeqNum;
        Addr lineKey = 0;        ///< memAddr >> 3 (forwarding granule)
        Cycle addrReadyCycle = 0;
        bool addrReady = false;
    };

    /** One pending completion, chained into its calendar bucket. */
    struct CompletionEvent
    {
        Cycle cycle = 0;
        InstSeqNum seq = invalidSeqNum;
        std::uint32_t slot = 0;
        std::uint32_t next = 0; ///< next in its bucket or the free list
    };

    /** @name Queues */
    /// @{
    /** In-flight window: ROB proper plus the fetch buffer, one ring. */
    RobRing rob;

    /**
     * Issue-queue state. Entries waiting on operands live only on the
     * producers' waiter lists; entries with every source ready sit in a
     * per-queue ready list the scheduler scans (in sequence order)
     * against the cycle's FU budgets. The occupancy counters gate rename
     * admission.
     */
    std::vector<DynInst *> intIqReady;
    std::vector<DynInst *> fpIqReady;
    std::vector<DynInst *> brIqReady;
    unsigned intIqCount = 0;
    unsigned fpIqCount = 0;
    unsigned brIqCount = 0;

    /** Per-physical-register waiter lists (consumer wakeup). */
    std::vector<std::vector<RobRef>> intWaiters;
    std::vector<std::vector<RobRef>> fpWaiters;
    std::vector<std::vector<RobRef>> predWaiters;

    std::deque<InstSeqNum> loadQ;
    std::deque<StoreRecord> storeQ;
    std::uint64_t sqBase = 0; ///< absolute position of storeQ.front()

    /**
     * Completion calendar (Brown, CACM 1988): a ring of per-cycle
     * buckets indexed by due cycle modulo kCalendarSpan, each a singly
     * linked list of events in @ref completionEvents. A bucket also
     * holds events due a lap or more later; the drain of cycle c takes
     * only those due at c. The span exceeds Table 1's longest latency
     * without MSHR queueing (agen 1 + DTLB miss 10 + L1D 2 + L2 8 +
     * memory 120 = 141 cycles), so there only fills queued for an MSHR
     * wait a lap. Drained events return to a free list, so steady state
     * allocates nothing.
     */
    static constexpr std::size_t kCalendarSpan = 256;
    static constexpr std::uint32_t kNoEvent = ~0u;
    std::vector<std::uint32_t> calendar =
        std::vector<std::uint32_t>(kCalendarSpan, kNoEvent);
    std::vector<CompletionEvent> completionEvents;
    std::uint32_t freeEvent = kNoEvent;
    /** Reused per-cycle scratch: the drained bucket, sorted by seq. */
    std::vector<std::pair<InstSeqNum, std::uint32_t>> dueScratch;
    /// @}

    /** @name Fast-forward warming (shared by record + event paths) */
    /// @{
    /** Warm one fast-forwarded instruction's worth of state. */
    void warmInstruction(const program::ExecRecord &rec, bool warm_tables,
                         Addr &warm_line);

    /**
     * Commit one fast-forwarded compare: train the predicate predictor
     * (when @p warm_tables and the scheme has one) and sync the
     * committed predicate state (PEP-PA logical file + PPRF).
     */
    void warmCompare(const isa::Instruction *ins, Addr pc,
                     bool pd1_written, bool pd1_val, bool pd2_written,
                     bool pd2_val, bool warm_tables);

    /**
     * Re-sync the architecturally mapped predicate state from the
     * oracle for every register in @p written_mask — the skip tier's
     * batched equivalent of per-compare syncing (the final register
     * value is all later consumers can see).
     */
    void syncPredicatesFromOracle(std::uint64_t written_mask);

    /** Event sinks bridging Emulator fast-forward tiers to this core. */
    struct FfSkipSink;
    struct FfWarmSink;
    /// @}

    /** @name Fetch state */
    /// @{
    Addr fetchPc = 0;
    Cycle fetchResumeCycle = 0;
    bool fetchHalted = false;    ///< wrong path ran off the image
    bool fetchFrozen = false;    ///< drainPipeline() stops new fetches
    bool fetchOnOracle = true;
    std::uint64_t oracleCursor = 0;
    Addr lastFetchLine = ~0ull;
    /// @}

    /** Oracle record window (producer: emulator; consumer: fetch). */
    program::ExecRing oracleRing;
    std::uint64_t oracleBase = 0;

    /** log2 of the I-cache line size (warming's per-line touch). */
    unsigned iLineShift = 6;

    /** PEP-PA's logical predicate register file (OoO writeback order). */
    std::array<bool, isa::numPredRegs> archPred{};

    Cycle now = 0;
    InstSeqNum seqCounter = 0;
    CoreStats stats_;
};

} // namespace core
} // namespace pp

#endif // PP_CORE_CORE_HH
