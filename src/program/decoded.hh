/**
 * @file
 * Predecoded micro-op stream: the functional path's fast representation.
 *
 * The legacy interpreter walks `isa::Instruction` objects (one pointer
 * chase through Program::at per instruction, a two-level opcode/cmp-type
 * switch, field-by-field operand checks). Sweeps decode each static
 * instruction millions of times that way. A DecodedProgram performs that
 * work exactly once per binary: every instruction becomes a flat,
 * cache-dense DecodedOp carrying a fully flattened execution kind (the
 * compare-type sub-switch is folded into the kind), operand register
 * indices with the sentinel checks resolved at decode time, the
 * pre-masked immediate, the branch target as both address and
 * instruction index, and the basic-block run length batched execution
 * uses to emit records a block at a time.
 *
 * The emulator's hot loops (record production for the OoO core's
 * oracle, and the two fast-forward tiers of sampled simulation) execute
 * DecodedOps; the decoded stream is bit-identical to the legacy
 * interpreter by contract (tests/program/test_decoded.cpp replays both
 * against each other over the whole suite). Programs are immutable, so
 * one DecodedProgram is shared read-only by every run of a benchmark ×
 * if-conversion cell (see the driver's decoded-program cache).
 */

#ifndef PP_PROGRAM_DECODED_HH
#define PP_PROGRAM_DECODED_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "program/program.hh"

namespace pp
{
namespace program
{

/** Everything the timing model needs to know about one executed inst. */
struct ExecRecord
{
    Addr pc = 0;
    const isa::Instruction *ins = nullptr;

    /** Value of the qualifying predicate (true => executed). */
    bool qpVal = true;

    /** Raw condition outcome (compares with true QP only). */
    bool condVal = false;

    /** Which predicate targets were architecturally written, and values. */
    bool pd1Written = false;
    bool pd2Written = false;
    bool pd1Val = false;
    bool pd2Val = false;

    /** Branch resolution. */
    bool branchTaken = false;

    /** Address of the next instruction in program order. */
    Addr nextPc = 0;

    /** Effective address (loads/stores with true QP). */
    Addr memAddr = 0;
};

/**
 * Flattened execution kind: one switch label per distinct semantic
 * action. Opcode sub-cases that the legacy interpreter resolves at run
 * time are split into their own kinds (the four compare types; FP ALU
 * with and without a second source), so the hot loop dispatches exactly
 * once per instruction.
 */
enum class ExecKind : std::uint8_t
{
    Nop,
    IAdd,
    ISub,
    IAnd,
    IOr,
    IXor,
    IShl,
    IMul,
    IMovImm,
    IMov,
    FAlu2,      ///< FAdd/FMul/FDiv with two sources (identical payload fn)
    FAlu1,      ///< FAdd/FMul/FDiv with src2 == invalidReg
    FMov,
    Ld,
    FLd,
    St,
    FSt,
    CmpNormal,
    CmpUnc,
    CmpAnd,
    CmpOr,
    Br,
    BrCall,
    BrRet,
};

/**
 * One predecoded instruction. 24 bytes, flat vector — the hot loop
 * touches one cache line per 2-3 ops instead of chasing into the
 * 80-byte isa::Instruction image.
 *
 * Register encoding: operand sentinels are resolved at decode time so
 * the executor needs no invalidReg checks. Integer sources map
 * invalidReg to r0 (hardwired zero, never written — reading it yields
 * the 0 the legacy interpreter substitutes); integer/predicate
 * destinations map invalidReg and the read-only p0 to index 0, which
 * the executor treats as "discard".
 */
struct DecodedOp
{
    /**
     * Immediate / memory displacement. IShl stores the pre-masked shift
     * count; Br/BrCall store the target address (branches carry no
     * immediate).
     */
    std::int64_t imm = 0;

    /** Condition-generator id (compares). */
    std::uint32_t condId = 0;

    /** Branch-target instruction index (Br/BrCall). */
    std::uint32_t targetIdx = 0;

    /**
     * Basic-block run length: instructions from this one through the
     * end of its block (a branch, the image end, or the 0xffff cap),
     * inclusive. Ops before the last of a run never redirect control,
     * so batched emission executes a whole run per dispatch setup.
     */
    std::uint16_t bbLen = 1;

    ExecKind kind = ExecKind::Nop;
    std::uint8_t qp = 0;
    std::uint8_t dst = 0;
    std::uint8_t src1 = 0;
    std::uint8_t src2 = 0;
    std::uint8_t pdst1 = 0;
    std::uint8_t pdst2 = 0;
};

/**
 * The predecoded form of one Program. Immutable after construction and
 * position-independent, so it is shared across threads exactly like the
 * Program it mirrors (sim::DecodedRef / the sweep engine's cache); the
 * source Program must outlive it (ExecRecords point into its image).
 */
class DecodedProgram
{
  public:
    explicit DecodedProgram(const Program &prog);

    const std::vector<DecodedOp> &ops() const { return ops_; }
    std::size_t size() const { return ops_.size(); }

    /** The program this decode was built from (identity check). */
    const Program *source() const { return src_; }

  private:
    const Program *src_;
    std::vector<DecodedOp> ops_;
};

/**
 * Growable power-of-two ring buffer of ExecRecords: the oracle window
 * between the emulator (producer, basic-block batches) and the OoO
 * core's fetch stage (consumer, trimmed at commit). push() references
 * are invalidated by the next push (growth may reallocate); the core
 * takes at most one record reference per fetch slot and copies it
 * before the next production call.
 */
class ExecRing
{
  public:
    ExecRing() : buf_(kInitialCap), mask_(kInitialCap - 1) {}

    std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
    bool empty() const { return head_ == tail_; }

    /** Slot for the next record (stale contents; producer fills it). */
    ExecRecord &
    push()
    {
        if (size() > mask_)
            grow();
        return buf_[static_cast<std::size_t>(tail_++) & mask_];
    }

    /** i-th record from the front (0 = oldest). @pre i < size(). */
    const ExecRecord &
    at(std::size_t i) const
    {
        return buf_[(static_cast<std::size_t>(head_) + i) & mask_];
    }

    const ExecRecord &front() const { return at(0); }
    void popFront() { ++head_; }
    void clear() { head_ = tail_ = 0; }

  private:
    static constexpr std::size_t kInitialCap = 1024; // power of two

    void grow();

    std::vector<ExecRecord> buf_;
    std::size_t mask_; ///< buf_.size() - 1 (capacity is a power of two)
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
};

} // namespace program
} // namespace pp

#endif // PP_PROGRAM_DECODED_HH
