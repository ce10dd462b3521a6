/**
 * @file
 * In-order functional emulator: the architectural oracle.
 *
 * The emulator executes the program in program order and produces one
 * ExecRecord per architectural instruction. The out-of-order timing model
 * consumes this stream for correct-path fetch; wrong-path instructions are
 * fetched from the static image and never touch the emulator.
 *
 * Execution runs on the predecoded micro-op stream (program/decoded.hh):
 * one flat-array dispatch per instruction, records emitted in basic-block
 * batches into the consumer's ExecRing. Two further tiers serve sampled
 * simulation's fast-forward without materializing records at all:
 * skip() advances architectural state only (reporting the predicate
 * writes and call/return events the core must mirror), and warmForward()
 * additionally streams the cache/predictor-relevant events of every
 * instruction into an FfSink (SMARTS functional warming). The legacy
 * one-instruction switch interpreter survives as stepLegacy(), the
 * differential-testing reference the decoded path is pinned against
 * (tests/program/test_decoded.cpp).
 */

#ifndef PP_PROGRAM_EMULATOR_HH
#define PP_PROGRAM_EMULATOR_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "isa/registers.hh"
#include "program/condition.hh"
#include "program/decoded.hh"
#include "program/paged_image.hh"
#include "program/program.hh"

namespace pp
{

struct ByteReader;

namespace program
{

class TraceFile;

/**
 * FP payload mixing constant: FAdd/FMul/FDiv all produce
 * mix64(a + kFpMix * (b + 1)). One definition shared by the decoded
 * execOne cases and the legacy reference interpreter — the
 * bit-identity contract between them must not hinge on duplicated
 * literals.
 */
constexpr std::uint64_t kFpMix = 0x9e3779b97f4a7c15ull;

/**
 * Architectural state + program-order execution.
 *
 * Register values are modeled as 64-bit integers (FP registers carry
 * integer payloads; the FP/INT distinction matters to the timing model, not
 * to the oracle). Memory is a flat data segment; effective addresses wrap
 * into it so generated programs can use arbitrary strides safely.
 */
class Emulator
{
  public:
    /**
     * The data segment with the page bookkeeping that lets restore()
     * and checkpoint() touch only what changed. Invariant: outside its
     * dirty pages, @ref words equals the image @ref matched.
     */
    struct Segment
    {
        /** The 8-byte words loads and stores index directly. */
        std::vector<std::uint64_t> words;
        /**
         * Pages of the image the words last matched; all null (zeros)
         * in a fresh segment. Held by shared pointer, never by address:
         * a freed page's address can be reused by a later page, and a
         * stale match would skip a copy restore() needs.
         */
        std::vector<PagedImage::PagePtr> matched;
        /** One byte per page: stored to since the words matched. */
        std::vector<std::uint8_t> dirty;
    };

    /**
     * @param prog program to execute (must outlive the emulator)
     * @param seed RNG seed for stochastic conditions
     *
     * Predecodes the program privately. Runs sharing a binary should
     * share one DecodedProgram via the other constructor instead (the
     * sweep engine's decoded cache does).
     */
    Emulator(const Program &prog, std::uint64_t seed);

    /**
     * As above, executing on a shared predecode of @p prog. @p decoded
     * may be null (decode privately); when set it must have been built
     * from @p prog itself and must outlive the emulator.
     *
     * With @p trace set, conditions REPLAY the trace's recorded streams
     * (program/trace.hh) instead of being generated: the emulator
     * consumes the recorded outcome exactly where it would have drawn a
     * fresh value, on every tier, so the execution is bit-identical to
     * the recording run. The trace must match @p prog (it normally IS
     * the trace's embedded binary) and must outlive the emulator.
     *
     * @p segment is adopted when another emulator handed it back
     * (releaseSegment()) at this program's data size; otherwise it is
     * freed and a zeroed segment allocated. An adopted segment keeps
     * its last owner's data until restore(), so adopt one only to
     * restore a checkpoint into it: restore() then copies just the
     * pages that differ.
     */
    Emulator(const Program &prog, const DecodedProgram *decoded,
             std::uint64_t seed, const TraceFile *trace = nullptr,
             Segment segment = {});

    /**
     * Not copyable or movable: conds/condGen/condRep point into the
     * emulator's own condStore member and would dangle in the
     * destination object.
     */
    Emulator(const Emulator &) = delete;
    Emulator &operator=(const Emulator &) = delete;

    /**
     * Record every condition outcome this emulator draws from here on
     * into @p streams (one per condition, sized to the program's
     * condition count; nullptr detaches). Generation mode only — a
     * replaying emulator has nothing new to record.
     */
    void recordConditions(std::vector<ConditionStream> *streams);

    /** True when conditions replay a recorded trace. */
    bool replaying() const { return condRep != nullptr; }

    /** Execute one instruction; returns its record. */
    ExecRecord step();

    /**
     * Execute at least @p min_records instructions, appending one
     * record each to @p ring — whole basic blocks at a time, so the
     * per-batch dispatch setup amortizes. The ring may end up past
     * min_records by up to one block.
     */
    void produce(ExecRing &ring, std::uint64_t min_records);

    /**
     * Reference interpreter: the original one-instruction switch over
     * isa::Instruction. Bit-identical to step() by contract; kept for
     * differential tests and as the fast-forward benchmark baseline.
     */
    ExecRecord stepLegacy();

    /**
     * Event sink for the record-free fast-forward tiers. skip() reports
     * only taken calls/returns (the consumer's return-address stack
     * must replay them in order — its circular clobbering is history-
     * dependent); warmForward() streams every warming-relevant event.
     */
    struct FfSink
    {
        virtual ~FfSink() = default;

        /** Fetch crossed into a new I-cache line (warmForward only). */
        virtual void instLine(Addr pc) { (void)pc; }

        /** Executed load/store (true QP; warmForward only). */
        virtual void memAccess(Addr addr, bool is_store)
        { (void)addr; (void)is_store; }

        /**
         * Conditional branch executed, taken or not (warmForward
         * only). @p ins points into the program image.
         */
        virtual void condBranch(const isa::Instruction *ins, Addr pc,
                                bool taken)
        { (void)ins; (void)pc; (void)taken; }

        /**
         * Compare executed (warmForward only), with the per-target
         * architectural write-back flags and values.
         */
        virtual void compare(const isa::Instruction *ins, Addr pc,
                             bool pd1_written, bool pd1_val,
                             bool pd2_written, bool pd2_val)
        { (void)ins; (void)pc; (void)pd1_written; (void)pd1_val;
          (void)pd2_written; (void)pd2_val; }

        /** Taken call pushed @p ret_addr (both tiers). */
        virtual void takenCall(Addr ret_addr) { (void)ret_addr; }

        /** Taken return popped the call stack (both tiers). */
        virtual void takenRet() {}
    };

    /**
     * Fast-forward tier 1 (outside the warming horizon): execute @p n
     * instructions updating architectural state only — no records, no
     * event stream beyond the call/return notifications @p sink needs
     * for return-address-stack sync. Returns the set of predicate
     * registers written at least once, as a bitmask by register index
     * (the consumer re-syncs exactly those from the final register
     * values, which equals replaying every intermediate write).
     */
    std::uint64_t skip(std::uint64_t n, FfSink *sink = nullptr);

    /**
     * Fast-forward tier 2 (inside the warming horizon): execute @p n
     * instructions streaming functional-warming events into @p sink.
     * @p line_state carries the last-touched I-line (pc >> line_shift)
     * across calls; pass ~0 to force a touch on the first instruction.
     *
     * Templated on the concrete sink (any type with FfSink's method
     * set — deriving from FfSink marked final devirtualizes) so the
     * consumer's warming code inlines into the decoded hot loop; the
     * event path runs every warmed instruction of every sampled run.
     */
    template <class Sink>
    void warmForward(std::uint64_t n, Sink &sink, unsigned line_shift,
                     Addr &line_state);

    /**
     * Complete architectural state at one program position: registers,
     * data memory, call stack, condition-stream cursors and RNG streams.
     * Restoring it into an emulator over the same program resumes the
     * execution bit-identically, so a detailed simulation window can
     * start mid-program (see sampling/).
     */
    struct Checkpoint
    {
        std::vector<std::uint64_t> intRegs;
        std::vector<std::uint64_t> fpRegs;
        std::vector<std::uint8_t> predRegs;
        /** Data segment; its pages may be shared with other checkpoints. */
        PagedImage dataMem;
        std::vector<Addr> callStack;
        Addr pc = 0;
        std::uint64_t numInsts = 0;
        ConditionSource::Checkpoint conds;
        Rng::State rng{};

        /**
         * Portable little-endian byte image. dataMem — by far the bulk
         * of the state — is stored as sparse (index, word) pairs of the
         * words that differ from @p base's image (an earlier checkpoint
         * of the same execution, with the same segment size), or
         * without a base from a segment of zeros, whose size the image
         * then records. Every other field is stored whole. A sequence
         * of mid-program checkpoints is dominated by untouched memory,
         * so only the pages the two images do not share are scanned.
         */
        std::vector<std::uint8_t>
        serialize(const Checkpoint *base = nullptr) const;

        /**
         * Parse a serialize() image made against @p base (the result
         * shares every page the pairs leave untouched with it) or, with
         * none, against zeros of the recorded size, which must not
         * exceed kWarmIndexLimit words (program/warm_stream.hh; checked
         * before anything is allocated). Throws ArtifactError on
         * malformed input, including any field its encoder never
         * writes: a decoded image re-serializes to the same bytes.
         */
        static Checkpoint deserialize(const std::vector<std::uint8_t> &bytes,
                                      const Checkpoint *base = nullptr);

        /**
         * deserialize() of the image at @p r's position, leaving @p r
         * after it: a checkpoint set decodes its windows in place.
         */
        static Checkpoint deserialize(ByteReader &r, const Checkpoint *base);
    };

    /**
     * Capture the architectural state. Only the data pages stored to
     * since the last checkpoint() or restore() are read; every other
     * page is shared with that image, and so is a stored-to page that
     * still equals it. The segment then matches the captured image.
     */
    Checkpoint checkpoint();

    /**
     * True when restore() accepts @p pc for @p prog: instruction-aligned
     * and inside the code image (one past its last instruction
     * included).
     */
    static bool
    pcInImage(const Program &prog, Addr pc)
    {
        return pc % isa::instBytes == 0 &&
               pc / isa::instBytes <= prog.size();
    }

    /**
     * Restore state captured from an emulator over the same program;
     * fatal if the shapes (register/memory/condition counts) differ.
     * Copies a data page only if it was stored to or differs (by page
     * identity) from the image the segment last matched, so a fresh
     * emulator copies just @p ckpt's non-zero pages. The segment then
     * matches @p ckpt's image.
     */
    void restore(const Checkpoint &ckpt);

    /**
     * Hand the data segment back for a later emulator to adopt (see
     * the constructor). This emulator must not run afterwards.
     */
    Segment releaseSegment() && { return std::move(mem); }

    /** Current program counter. */
    Addr pc() const { return curPc; }

    /** Architectural predicate register value. */
    bool predReg(RegIndex idx) const { return predRegs[idx]; }

    /** Architectural integer register value. */
    std::uint64_t intReg(RegIndex idx) const { return intRegs[idx]; }

    /** Architectural FP register payload. */
    std::uint64_t fpReg(RegIndex idx) const { return fpRegs[idx]; }

    /** Data-segment word @p i (below the program's dataSize() / 8). */
    std::uint64_t dataWord(std::size_t i) const { return mem.words[i]; }

    /** Number of instructions executed so far. */
    std::uint64_t instCount() const { return numInsts; }

    /** Depth of the emulated call stack. */
    std::size_t callDepth() const { return callStack.size(); }

  private:
    /** Dispatch tier: what each executed op materializes. */
    enum class ExecTier { Produce, Skip, Warm };

    /**
     * Execute the op at curIdx and advance curPc/curIdx/numInsts.
     * Produce fills @p rec; Skip accumulates @p pred_mask and notifies
     * @p sink of taken calls/returns; Warm streams all events. Defined
     * below in this header so warmForward's sink calls inline.
     */
    template <ExecTier T, class Sink>
    void execOne(ExecRecord *rec, Sink *sink, std::uint64_t &pred_mask);

    /** Panic unless the current PC is inside the code image. */
    void checkInImage() const;

    /** Redirect to a taken branch's target (validated). */
    void redirect(Addr target, std::uint32_t target_idx);

    std::uint64_t readInt(RegIndex idx) const;
    void writeInt(RegIndex idx, std::uint64_t val);
    void writePred(RegIndex idx, bool val, bool &written_flag,
                   bool &val_flag);
    Addr effAddr(std::uint64_t base, std::int64_t disp) const;

    /** Store @p val at effective address @p a; marks its page dirty. */
    void
    storeWord(Addr a, std::uint64_t val)
    {
        mem.words[a / 8] = val;
        mem.dirty[a / (8 * PagedImage::kPageWords)] = 1;
    }

    /**
     * Draw the next outcome of condition @p id. The source is one of
     * exactly two final classes, picked at construction; dispatching on
     * the cached typed pointer instead of through the vtable lets both
     * header-defined evaluate() bodies inline into the hot loop (one
     * well-predicted branch instead of an opaque indirect call).
     */
    bool
    evalCond(CondId id)
    {
        return condGen != nullptr ? condGen->evaluateImpl(id)
                                  : condRep->evaluateImpl(id);
    }

    const Program &program;
    const DecodedProgram *dec;
    std::unique_ptr<const DecodedProgram> ownedDec;
    const isa::Instruction *image; ///< program.image().data()
    const DecodedOp *ops = nullptr; ///< dec->ops().data()
    /**
     * The condition source, stored by value (not behind an owning
     * pointer): every executed compare reads it, and keeping it inside
     * the emulator object saves a dependent heap load on that path —
     * measurable on the fast-forward tiers. condGen/condRep cache the
     * active alternative for evalCond(); conds is the interface view
     * (checkpoint/restore).
     */
    std::variant<std::monostate, ConditionTable, ConditionReplay> condStore;
    ConditionSource *conds = nullptr;
    ConditionTable *condGen = nullptr;  ///< set in generation mode
    ConditionReplay *condRep = nullptr; ///< set in replay mode
    Rng rng;

    std::vector<std::uint64_t> intRegs;
    std::vector<std::uint64_t> fpRegs;
    /** One byte per predicate (0/1): the hot loop reads qp every op. */
    std::vector<std::uint8_t> predRegs;
    Segment mem;
    std::vector<Addr> callStack;

    Addr curPc;
    std::uint32_t curIdx = 0; ///< curPc / isa::instBytes, kept in sync
    std::uint32_t numOps = 0; ///< dec->size()
    std::uint64_t numInsts = 0;
};

// ---------------------------------------------------------------------
// Decoded execution: the one semantic body behind step()/produce()/
// skip()/warmForward(). The tier selects what each op materializes;
// everything architectural (registers, memory, condition RNG draws,
// call stack) is tier-independent and bit-identical to stepLegacy().
// Header-defined so warm-tier sinks devirtualize and inline.
// ---------------------------------------------------------------------

template <Emulator::ExecTier T, class Sink>
inline void
Emulator::execOne(ExecRecord *rec, Sink *sink, std::uint64_t &pred_mask)
{
    const DecodedOp &op = ops[curIdx];
    const bool qpVal = predRegs[op.qp] != 0;
    const Addr pc = curPc;
    Addr nextPc = pc + isa::instBytes;

    if constexpr (T == ExecTier::Produce) {
        rec->pc = pc;
        rec->ins = &image[curIdx];
        rec->qpVal = qpVal;
        rec->condVal = false;
        rec->pd1Written = false;
        rec->pd2Written = false;
        rec->pd1Val = false;
        rec->pd2Val = false;
        rec->branchTaken = false;
        rec->nextPc = nextPc;
        rec->memAddr = 0;
    }

    // Compare write-back state, shared by the four compare kinds.
    bool condVal = false;
    bool p1w = false, p1v = false, p2w = false, p2v = false;
    auto wpred = [&](std::uint8_t pd, bool val, bool &w, bool &v) {
        if (pd == 0)
            return; // p0/invalid: architecturally discarded
        predRegs[pd] = val ? 1 : 0;
        w = true;
        v = val;
        if constexpr (T == ExecTier::Skip)
            pred_mask |= 1ull << pd;
    };

    bool redirected = false;
    std::uint32_t newIdx = 0;

    switch (op.kind) {
      case ExecKind::Nop:
        break;

      case ExecKind::IAdd:
        if (qpVal && op.dst != 0)
            intRegs[op.dst] = intRegs[op.src1] + intRegs[op.src2];
        break;
      case ExecKind::ISub:
        if (qpVal && op.dst != 0)
            intRegs[op.dst] = intRegs[op.src1] - intRegs[op.src2];
        break;
      case ExecKind::IAnd:
        if (qpVal && op.dst != 0)
            intRegs[op.dst] = intRegs[op.src1] & intRegs[op.src2];
        break;
      case ExecKind::IOr:
        if (qpVal && op.dst != 0)
            intRegs[op.dst] = intRegs[op.src1] | intRegs[op.src2];
        break;
      case ExecKind::IXor:
        if (qpVal && op.dst != 0)
            intRegs[op.dst] = intRegs[op.src1] ^ intRegs[op.src2];
        break;
      case ExecKind::IShl:
        if (qpVal && op.dst != 0)
            intRegs[op.dst] = intRegs[op.src1] << op.imm;
        break;
      case ExecKind::IMul:
        if (qpVal && op.dst != 0)
            intRegs[op.dst] = intRegs[op.src1] * intRegs[op.src2];
        break;
      case ExecKind::IMovImm:
        if (qpVal && op.dst != 0)
            intRegs[op.dst] = static_cast<std::uint64_t>(op.imm);
        break;
      case ExecKind::IMov:
        if (qpVal && op.dst != 0)
            intRegs[op.dst] = intRegs[op.src1];
        break;

      case ExecKind::FAlu2:
        if (qpVal) {
            fpRegs[op.dst] =
                mix64(fpRegs[op.src1] + kFpMix * (fpRegs[op.src2] + 1));
        }
        break;
      case ExecKind::FAlu1:
        if (qpVal)
            fpRegs[op.dst] = mix64(fpRegs[op.src1] + kFpMix);
        break;
      case ExecKind::FMov:
        if (qpVal)
            fpRegs[op.dst] = fpRegs[op.src1];
        break;

      case ExecKind::Ld:
      case ExecKind::FLd: {
        if (!qpVal)
            break;
        const Addr a = effAddr(intRegs[op.src1], op.imm);
        if constexpr (T == ExecTier::Produce)
            rec->memAddr = a;
        if constexpr (T == ExecTier::Warm)
            sink->memAccess(a, false);
        const std::uint64_t v = mem.words[a / 8];
        if (op.kind == ExecKind::Ld) {
            if (op.dst != 0)
                intRegs[op.dst] = v;
        } else {
            fpRegs[op.dst] = v;
        }
        break;
      }

      case ExecKind::St:
      case ExecKind::FSt: {
        if (!qpVal)
            break;
        const Addr a = effAddr(intRegs[op.src1], op.imm);
        if constexpr (T == ExecTier::Produce)
            rec->memAddr = a;
        if constexpr (T == ExecTier::Warm)
            sink->memAccess(a, true);
        storeWord(a, op.kind == ExecKind::St ? intRegs[op.src2]
                                             : fpRegs[op.src2]);
        break;
      }

      case ExecKind::CmpUnc:
        // Always writes both targets: QP & cond / QP & !cond. The
        // condition is only drawn (RNG!) under a true QP, exactly as
        // the reference interpreter does.
        condVal = qpVal ? evalCond(op.condId) : false;
        wpred(op.pdst1, qpVal && condVal, p1w, p1v);
        wpred(op.pdst2, qpVal && !condVal, p2w, p2v);
        goto compare_done;
      case ExecKind::CmpNormal:
        if (qpVal) {
            condVal = evalCond(op.condId);
            wpred(op.pdst1, condVal, p1w, p1v);
            wpred(op.pdst2, !condVal, p2w, p2v);
        }
        goto compare_done;
      case ExecKind::CmpAnd:
        if (qpVal) {
            condVal = evalCond(op.condId);
            if (!condVal) {
                wpred(op.pdst1, false, p1w, p1v);
                wpred(op.pdst2, false, p2w, p2v);
            }
        }
        goto compare_done;
      case ExecKind::CmpOr:
        if (qpVal) {
            condVal = evalCond(op.condId);
            if (condVal) {
                wpred(op.pdst1, true, p1w, p1v);
                wpred(op.pdst2, true, p2w, p2v);
            }
        }
      compare_done:
        if constexpr (T == ExecTier::Produce) {
            rec->condVal = condVal;
            rec->pd1Written = p1w;
            rec->pd1Val = p1v;
            rec->pd2Written = p2w;
            rec->pd2Val = p2v;
        }
        if constexpr (T == ExecTier::Warm)
            sink->compare(&image[curIdx], pc, p1w, p1v, p2w, p2v);
        break;

      case ExecKind::Br:
        if constexpr (T == ExecTier::Warm) {
            if (op.qp != 0)
                sink->condBranch(&image[curIdx], pc, qpVal);
        }
        if (qpVal) {
            if constexpr (T == ExecTier::Produce)
                rec->branchTaken = true;
            nextPc = static_cast<Addr>(op.imm);
            newIdx = op.targetIdx != DecodedOp::badTarget
                ? op.targetIdx
                : static_cast<std::uint32_t>(nextPc / isa::instBytes);
            redirected = true;
        }
        break;

      case ExecKind::BrCall:
        if constexpr (T == ExecTier::Warm) {
            if (op.qp != 0)
                sink->condBranch(&image[curIdx], pc, qpVal);
        }
        if (qpVal) {
            if constexpr (T == ExecTier::Produce)
                rec->branchTaken = true;
            callStack.push_back(pc + isa::instBytes);
            if constexpr (T != ExecTier::Produce) {
                if (sink)
                    sink->takenCall(pc + isa::instBytes);
            }
            nextPc = static_cast<Addr>(op.imm);
            newIdx = op.targetIdx != DecodedOp::badTarget
                ? op.targetIdx
                : static_cast<std::uint32_t>(nextPc / isa::instBytes);
            redirected = true;
        }
        break;

      case ExecKind::BrRet:
        if constexpr (T == ExecTier::Warm) {
            if (op.qp != 0)
                sink->condBranch(&image[curIdx], pc, qpVal);
        }
        if (qpVal) {
            panicIfNot(!callStack.empty(), "return with empty call stack");
            if constexpr (T == ExecTier::Produce)
                rec->branchTaken = true;
            nextPc = callStack.back();
            callStack.pop_back();
            if constexpr (T != ExecTier::Produce) {
                if (sink)
                    sink->takenRet();
            }
            newIdx = static_cast<std::uint32_t>(nextPc / isa::instBytes);
            redirected = true;
        }
        break;
    }

    if (redirected) {
        if constexpr (T == ExecTier::Produce)
            rec->nextPc = nextPc;
        curPc = nextPc;
        curIdx = newIdx;
    } else {
        curPc = nextPc;
        ++curIdx;
    }
    ++numInsts;
}

template <class Sink>
void
Emulator::warmForward(std::uint64_t n, Sink &sink, unsigned line_shift,
                      Addr &line_state)
{
    std::uint64_t mask = 0;
    std::uint64_t done = 0;
    while (done < n) {
        checkInImage();
        const std::uint64_t len = std::min<std::uint64_t>(
            ops[curIdx].bbLen, n - done);
        for (std::uint64_t k = 0; k < len; ++k) {
            // I-side warming is per fetched line, exactly as fetch
            // charges it; the line state carries across the whole
            // fast-forward.
            const Addr line = curPc >> line_shift;
            if (line != line_state) {
                line_state = line;
                sink.instLine(curPc);
            }
            execOne<ExecTier::Warm>(static_cast<ExecRecord *>(nullptr),
                                    &sink, mask);
        }
        done += len;
    }
}

} // namespace program
} // namespace pp

#endif // PP_PROGRAM_EMULATOR_HH
