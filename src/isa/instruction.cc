#include "isa/instruction.hh"

#include <sstream>

namespace pp
{
namespace isa
{

std::string_view
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::IAdd: return "add";
      case Opcode::ISub: return "sub";
      case Opcode::IAnd: return "and";
      case Opcode::IOr: return "or";
      case Opcode::IXor: return "xor";
      case Opcode::IShl: return "shl";
      case Opcode::IMul: return "mul";
      case Opcode::IMovImm: return "movi";
      case Opcode::IMov: return "mov";
      case Opcode::FAdd: return "fadd";
      case Opcode::FMul: return "fmul";
      case Opcode::FDiv: return "fdiv";
      case Opcode::FMov: return "fmov";
      case Opcode::Ld: return "ld";
      case Opcode::St: return "st";
      case Opcode::FLd: return "fld";
      case Opcode::FSt: return "fst";
      case Opcode::Cmp: return "cmp";
      case Opcode::Br: return "br";
      case Opcode::BrCall: return "br.call";
      case Opcode::BrRet: return "br.ret";
      default: return "???";
    }
}

std::string_view
cmpTypeName(CmpType t)
{
    switch (t) {
      case CmpType::Normal: return "";
      case CmpType::Unc: return ".unc";
      case CmpType::And: return ".and";
      case CmpType::Or: return ".or";
      default: return ".?";
    }
}

std::string
Instruction::disassemble() const
{
    std::ostringstream ss;
    if (qp != regP0)
        ss << "(p" << qp << ") ";
    ss << opcodeName(op);
    if (isCompare())
        ss << cmpTypeName(ctype);
    ss << ' ';

    if (isCompare()) {
        ss << 'p' << pdst1 << ",p" << pdst2 << " = cond" << condId;
        if (src1 != invalidReg)
            ss << " [r" << src1;
        if (src2 != invalidReg)
            ss << ",r" << src2;
        if (src1 != invalidReg)
            ss << ']';
    } else if (isBranch()) {
        if (op != Opcode::BrRet)
            ss << "0x" << std::hex << target << std::dec;
    } else if (isLoad()) {
        ss << (isFp() ? 'f' : 'r') << dst << " = [r" << src1 << '+' << imm
           << ']';
    } else if (isStore()) {
        ss << "[r" << src1 << '+' << imm << "] = " << (isFp() ? 'f' : 'r')
           << src2;
    } else if (op == Opcode::IMovImm) {
        ss << 'r' << dst << " = " << imm;
    } else if (op == Opcode::IMov || op == Opcode::FMov) {
        ss << (isFp() ? 'f' : 'r') << dst << " = " << (isFp() ? 'f' : 'r')
           << src1;
    } else if (op != Opcode::Nop) {
        ss << (isFp() ? 'f' : 'r') << dst << " = " << (isFp() ? 'f' : 'r')
           << src1 << ',' << (isFp() ? 'f' : 'r') << src2;
    }
    if (ifConverted)
        ss << "  ;ifc";
    return ss.str();
}

Instruction
makeAlu(Opcode op, RegIndex dst, RegIndex src1, RegIndex src2, RegIndex qp)
{
    Instruction i;
    i.op = op;
    i.dst = dst;
    i.src1 = src1;
    i.src2 = src2;
    i.qp = qp;
    return i;
}

Instruction
makeMovImm(RegIndex dst, std::int64_t imm, RegIndex qp)
{
    Instruction i;
    i.op = Opcode::IMovImm;
    i.dst = dst;
    i.imm = imm;
    i.qp = qp;
    return i;
}

Instruction
makeMov(RegIndex dst, RegIndex src, RegIndex qp)
{
    Instruction i;
    i.op = Opcode::IMov;
    i.dst = dst;
    i.src1 = src;
    i.qp = qp;
    return i;
}

Instruction
makeFp(Opcode op, RegIndex dst, RegIndex src1, RegIndex src2, RegIndex qp)
{
    Instruction i;
    i.op = op;
    i.dst = dst;
    i.src1 = src1;
    i.src2 = src2;
    i.qp = qp;
    return i;
}

Instruction
makeLoad(RegIndex dst, RegIndex base, std::int64_t disp, RegIndex qp, bool fp)
{
    Instruction i;
    i.op = fp ? Opcode::FLd : Opcode::Ld;
    i.dst = dst;
    i.src1 = base;
    i.imm = disp;
    i.qp = qp;
    return i;
}

Instruction
makeStore(RegIndex src, RegIndex base, std::int64_t disp, RegIndex qp,
          bool fp)
{
    Instruction i;
    i.op = fp ? Opcode::FSt : Opcode::St;
    i.src1 = base;
    i.src2 = src;
    i.imm = disp;
    i.qp = qp;
    return i;
}

Instruction
makeCmp(CmpType ctype, RegIndex pdst1, RegIndex pdst2, std::uint32_t cond_id,
        RegIndex src1, RegIndex src2, RegIndex qp)
{
    Instruction i;
    i.op = Opcode::Cmp;
    i.ctype = ctype;
    i.pdst1 = pdst1;
    i.pdst2 = pdst2;
    i.condId = cond_id;
    i.src1 = src1;
    i.src2 = src2;
    i.qp = qp;
    return i;
}

Instruction
makeBranch(Addr target, RegIndex qp)
{
    Instruction i;
    i.op = Opcode::Br;
    i.target = target;
    i.qp = qp;
    return i;
}

Instruction
makeCall(Addr target, RegIndex qp)
{
    Instruction i;
    i.op = Opcode::BrCall;
    i.target = target;
    i.qp = qp;
    return i;
}

Instruction
makeRet(RegIndex qp)
{
    Instruction i;
    i.op = Opcode::BrRet;
    i.qp = qp;
    return i;
}

Instruction
makeNop()
{
    return Instruction{};
}

const char *
illegalReason(const Instruction &ins, std::size_t num_insts,
              std::size_t num_conds)
{
    // A register field either names a register of its file or, where
    // the role allows it, holds invalidReg (an integer source reads r0,
    // an integer destination is discarded).
    auto opt = [](RegIndex r, RegIndex n) { return r == invalidReg || r < n; };
    if (ins.op >= Opcode::NumOpcodes)
        return "unknown opcode";
    if (ins.ctype > CmpType::Or)
        return "unknown compare type";
    if (ins.qp >= numPredRegs || !opt(ins.pdst1, numPredRegs) ||
        !opt(ins.pdst2, numPredRegs))
        return "predicate register out of range";
    bool regs_ok;
    switch (ins.op) {
      case Opcode::FAdd:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FMov:
        regs_ok = ins.dst < numFpRegs && ins.src1 < numFpRegs &&
            opt(ins.src2, numFpRegs);
        break;
      case Opcode::FLd:
        regs_ok = ins.dst < numFpRegs && opt(ins.src1, numIntRegs) &&
            opt(ins.src2, numIntRegs);
        break;
      case Opcode::FSt:
        regs_ok = opt(ins.dst, numFpRegs) && opt(ins.src1, numIntRegs) &&
            ins.src2 < numFpRegs;
        break;
      default:
        regs_ok = opt(ins.dst, numIntRegs) && opt(ins.src1, numIntRegs) &&
            opt(ins.src2, numIntRegs);
    }
    if (!regs_ok)
        return "register operand out of range";
    if (ins.op == Opcode::Cmp && ins.condId >= num_conds)
        return "condition id out of range";
    if ((ins.op == Opcode::Br || ins.op == Opcode::BrCall) &&
        (ins.target % instBytes != 0 || ins.target / instBytes >= num_insts))
        return "branch target outside the code image";
    return nullptr;
}

} // namespace isa
} // namespace pp
