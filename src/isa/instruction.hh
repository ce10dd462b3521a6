/**
 * @file
 * Static instruction representation and builder helpers.
 */

#ifndef PP_ISA_INSTRUCTION_HH
#define PP_ISA_INSTRUCTION_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "isa/opcodes.hh"
#include "isa/registers.hh"

namespace pp
{
namespace isa
{

/** Size in bytes of one encoded instruction (for PC arithmetic). */
constexpr Addr instBytes = 4;

/** Instructions per bundle (IA-64 style: fetch is bundle-granular). */
constexpr unsigned bundleInsts = 3;

/** Sentinel condition id for compares without a generator (never used). */
constexpr std::uint32_t invalidCondId = 0xffffffff;

/**
 * A static (decoded) instruction.
 *
 * Every instruction is guarded by a qualifying predicate @c qp (p0 by
 * default). Compares carry two predicate destinations plus a condition-
 * generator id the functional emulator evaluates; all other semantics are
 * register-to-register as documented in opcodes.hh.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    CmpType ctype = CmpType::Normal;

    /** Qualifying predicate register (p0 == always execute). */
    RegIndex qp = regP0;

    /** GR/FR destination, or invalidReg. */
    RegIndex dst = invalidReg;
    /** First source (GR, or FR for FP ops), or invalidReg. */
    RegIndex src1 = invalidReg;
    /** Second source, or invalidReg. */
    RegIndex src2 = invalidReg;

    /** Predicate destinations (compares only); may be regP0 (discarded). */
    RegIndex pdst1 = invalidReg;
    RegIndex pdst2 = invalidReg;

    /** Immediate operand (also the memory displacement for Ld/St). */
    std::int64_t imm = 0;

    /** Static branch target address (direct branches). */
    Addr target = 0;

    /** Condition-generator id evaluated by the emulator (compares only). */
    std::uint32_t condId = invalidCondId;

    /** Marked by the if-converter: this instruction was predicated by it. */
    bool ifConverted = false;

    /** True if this instruction is a branch. */
    bool isBranch() const { return isBranchOp(op); }

    /** True if this instruction is a compare (writes predicates). */
    bool isCompare() const { return op == Opcode::Cmp; }

    /** True for loads. */
    bool isLoad() const { return isLoadOp(op); }

    /** True for stores. */
    bool isStore() const { return isStoreOp(op); }

    /** True if the destination register is floating point. */
    bool isFp() const { return isFpOp(op); }

    /**
     * True if the branch is *statically* unconditional: guarded by p0.
     * A branch guarded by any other predicate is conditional — including
     * the region branches if-conversion creates from unconditional ones.
     */
    bool isUnconditionalBranch() const { return isBranch() && qp == regP0; }

    /** True if this branch needs a direction prediction at fetch. */
    bool isConditionalBranch() const { return isBranch() && qp != regP0; }

    /** True if the instruction is guarded (QP != p0). */
    bool isPredicated() const { return qp != regP0; }

    /** Functional-unit class. */
    OpClass opClass() const { return isa::opClass(op); }

    /** Human-readable disassembly, e.g. "(p3) cmp.unc p1,p2 = cond7". */
    std::string disassemble() const;
};

/**
 * Why @p ins cannot run as one of @p num_insts instructions of a
 * program with @p num_conds conditions, or nullptr when it can: an
 * unknown opcode or compare type, a register operand out of range for
 * its role (or missing where the role needs one), a compare's condition
 * id at or past @p num_conds, or a direct branch whose target is not an
 * instruction of the image. The predecoder asserts this rule and the
 * trace decoder reports it, so a loaded trace never holds an
 * instruction the core or the emulator would refuse.
 */
const char *illegalReason(const Instruction &ins, std::size_t num_insts,
                          std::size_t num_conds);

/** @name Builder helpers for the code generator and tests. */
/// @{

/** dst = src1 <op> src2. */
Instruction makeAlu(Opcode op, RegIndex dst, RegIndex src1, RegIndex src2,
                    RegIndex qp = regP0);

/** dst = imm. */
Instruction makeMovImm(RegIndex dst, std::int64_t imm, RegIndex qp = regP0);

/** dst = src. */
Instruction makeMov(RegIndex dst, RegIndex src, RegIndex qp = regP0);

/** FP op. */
Instruction makeFp(Opcode op, RegIndex dst, RegIndex src1, RegIndex src2,
                   RegIndex qp = regP0);

/** dst = mem[base + disp]. */
Instruction makeLoad(RegIndex dst, RegIndex base, std::int64_t disp,
                     RegIndex qp = regP0, bool fp = false);

/** mem[base + disp] = src. */
Instruction makeStore(RegIndex src, RegIndex base, std::int64_t disp,
                      RegIndex qp = regP0, bool fp = false);

/** (qp) cmp.<ctype> pdst1, pdst2 = cond<condId> [src1, src2]. */
Instruction makeCmp(CmpType ctype, RegIndex pdst1, RegIndex pdst2,
                    std::uint32_t cond_id, RegIndex src1 = invalidReg,
                    RegIndex src2 = invalidReg, RegIndex qp = regP0);

/** (qp) br target. */
Instruction makeBranch(Addr target, RegIndex qp = regP0);

/** (qp) br.call target. */
Instruction makeCall(Addr target, RegIndex qp = regP0);

/** (qp) br.ret (target resolved through the emulated call stack). */
Instruction makeRet(RegIndex qp = regP0);

/** nop. */
Instruction makeNop();

/// @}

} // namespace isa
} // namespace pp

#endif // PP_ISA_INSTRUCTION_HH
