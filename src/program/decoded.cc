#include "program/decoded.hh"

#include "common/logging.hh"
#include "isa/registers.hh"

namespace pp
{
namespace program
{

namespace
{

/** Integer source: invalidReg reads as zero through hardwired r0. */
std::uint8_t
srcReg(RegIndex r)
{
    return r == invalidReg ? static_cast<std::uint8_t>(isa::regR0)
                           : static_cast<std::uint8_t>(r);
}

/** Integer destination: invalidReg maps to the discarded r0 slot. */
std::uint8_t
dstReg(RegIndex r)
{
    return r == invalidReg ? static_cast<std::uint8_t>(isa::regR0)
                           : static_cast<std::uint8_t>(r);
}

/** Predicate destination: p0 and invalidReg both mean "discard" (0). */
std::uint8_t
predDst(RegIndex r)
{
    return r == isa::regP0 || r == invalidReg ? 0
                                              : static_cast<std::uint8_t>(r);
}

ExecKind
cmpKind(isa::CmpType t)
{
    switch (t) {
      case isa::CmpType::Normal: return ExecKind::CmpNormal;
      case isa::CmpType::Unc: return ExecKind::CmpUnc;
      case isa::CmpType::And: return ExecKind::CmpAnd;
      case isa::CmpType::Or: return ExecKind::CmpOr;
    }
    panic("decoder: unknown compare type");
}

} // namespace

DecodedProgram::DecodedProgram(const Program &prog) : src_(&prog)
{
    const std::vector<isa::Instruction> &image = prog.image();
    ops_.resize(image.size());

    for (std::size_t i = 0; i < image.size(); ++i) {
        const isa::Instruction &ins = image[i];
        DecodedOp &d = ops_[i];

        // Every operand below is then in range for its narrowed field.
        if (const char *why = isa::illegalReason(ins, image.size(),
                                                 prog.conditions().size()))
            panic(std::string("decoder: ") + why);
        d.qp = static_cast<std::uint8_t>(ins.qp);

        using isa::Opcode;
        switch (ins.op) {
          case Opcode::Nop:
            d.kind = ExecKind::Nop;
            break;

          case Opcode::IAdd:
          case Opcode::ISub:
          case Opcode::IAnd:
          case Opcode::IOr:
          case Opcode::IXor:
          case Opcode::IMul:
            switch (ins.op) {
              case Opcode::IAdd: d.kind = ExecKind::IAdd; break;
              case Opcode::ISub: d.kind = ExecKind::ISub; break;
              case Opcode::IAnd: d.kind = ExecKind::IAnd; break;
              case Opcode::IOr: d.kind = ExecKind::IOr; break;
              case Opcode::IXor: d.kind = ExecKind::IXor; break;
              default: d.kind = ExecKind::IMul; break;
            }
            d.dst = dstReg(ins.dst);
            d.src1 = srcReg(ins.src1);
            d.src2 = srcReg(ins.src2);
            break;

          case Opcode::IShl:
            d.kind = ExecKind::IShl;
            d.dst = dstReg(ins.dst);
            d.src1 = srcReg(ins.src1);
            d.imm = ins.imm & 63;
            break;

          case Opcode::IMovImm:
            d.kind = ExecKind::IMovImm;
            d.dst = dstReg(ins.dst);
            d.imm = ins.imm;
            break;

          case Opcode::IMov:
            d.kind = ExecKind::IMov;
            d.dst = dstReg(ins.dst);
            d.src1 = srcReg(ins.src1);
            break;

          case Opcode::FAdd:
          case Opcode::FMul:
          case Opcode::FDiv:
            // All three produce the same deterministic mixed payload;
            // the FP/latency distinction lives in the timing model.
            d.kind = ins.src2 == invalidReg ? ExecKind::FAlu1
                                            : ExecKind::FAlu2;
            d.dst = static_cast<std::uint8_t>(ins.dst);
            d.src1 = static_cast<std::uint8_t>(ins.src1);
            if (d.kind == ExecKind::FAlu2)
                d.src2 = static_cast<std::uint8_t>(ins.src2);
            break;

          case Opcode::FMov:
            d.kind = ExecKind::FMov;
            d.dst = static_cast<std::uint8_t>(ins.dst);
            d.src1 = static_cast<std::uint8_t>(ins.src1);
            break;

          case Opcode::Ld:
          case Opcode::FLd:
            d.kind = ins.op == Opcode::Ld ? ExecKind::Ld : ExecKind::FLd;
            d.dst = dstReg(ins.dst);
            d.src1 = srcReg(ins.src1);
            d.imm = ins.imm;
            break;

          case Opcode::St:
          case Opcode::FSt:
            d.kind = ins.op == Opcode::St ? ExecKind::St : ExecKind::FSt;
            d.src1 = srcReg(ins.src1);
            d.src2 = srcReg(ins.src2);
            d.imm = ins.imm;
            break;

          case Opcode::Cmp:
            d.kind = cmpKind(ins.ctype);
            d.pdst1 = predDst(ins.pdst1);
            d.pdst2 = predDst(ins.pdst2);
            d.condId = ins.condId;
            break;

          case Opcode::Br:
          case Opcode::BrCall:
          case Opcode::BrRet: {
            d.kind = ins.op == Opcode::Br
                ? ExecKind::Br
                : (ins.op == Opcode::BrCall ? ExecKind::BrCall
                                            : ExecKind::BrRet);
            // illegalReason() keeps Br/BrCall targets inside the image;
            // BrRet ignores its target.
            d.imm = static_cast<std::int64_t>(ins.target);
            d.targetIdx =
                static_cast<std::uint32_t>(ins.target / isa::instBytes);
            break;
          }

          default:
            panic("decoder: unknown opcode");
        }
    }

    // Basic-block run lengths, back to front: a branch (any kind — the
    // run must end wherever control may leave) or the image end closes
    // a block; the uint16 cap just splits very long straight-line runs.
    std::uint16_t run = 0;
    for (std::size_t i = image.size(); i-- > 0;) {
        if (isa::isBranchOp(image[i].op))
            run = 1;
        else if (run != 0xffff)
            ++run;
        ops_[i].bbLen = run;
    }
}

void
ExecRing::grow()
{
    // Double the capacity, re-laying the live records out from slot 0
    // so the power-of-two index masking stays valid.
    const std::size_t n = size();
    std::vector<ExecRecord> bigger(buf_.size() * 2);
    for (std::size_t i = 0; i < n; ++i)
        bigger[i] = at(i);
    buf_.swap(bigger);
    mask_ = buf_.size() - 1;
    head_ = 0;
    tail_ = n;
}

} // namespace program
} // namespace pp
