#include "program/emulator.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/bytestream.hh"
#include "common/logging.hh"
#include "program/trace.hh"
#include "program/warm_stream.hh"

namespace pp
{
namespace program
{

Emulator::Emulator(const Program &prog, std::uint64_t seed)
    : Emulator(prog, nullptr, seed)
{
}

Emulator::Emulator(const Program &prog, const DecodedProgram *decoded,
                   std::uint64_t seed, const TraceFile *trace,
                   Segment segment)
    : program(prog), dec(decoded), image(prog.image().data()),
      rng(seed), intRegs(isa::numIntRegs, 0), fpRegs(isa::numFpRegs, 0),
      predRegs(isa::numPredRegs, 0), mem(std::move(segment)),
      curPc(prog.entry())
{
    static_assert(isa::numPredRegs <= 64,
                  "skip()'s predicate-write mask is a 64-bit word");
    panicIfNot(isPowerOfTwo(prog.dataSize()),
               "data segment size must be a power of two");
    const std::size_t words = prog.dataSize() / 8;
    if (mem.words.size() != words) {
        // Free a segment of another size before allocating this one.
        mem = Segment();
        mem.words.assign(words, 0);
        mem.matched.assign(PagedImage::pagesFor(words), nullptr);
        mem.dirty.assign(PagedImage::pagesFor(words), 0);
    }
    if (trace == nullptr) {
        condGen = &condStore.emplace<ConditionTable>(
            prog.conditions(), seed ^ 0xc0ffee123456789ull);
        conds = condGen;
    } else {
        // Replay: outcomes come from the recorded streams; no condition
        // RNG exists to draw from. The trace normally carries the very
        // program being executed, but all the emulator requires is that
        // the streams line up with this program's condition table.
        panicIfNot(trace->streams().size() == prog.conditions().size() &&
                   trace->binary().size() == prog.size(),
                   "trace was recorded from a different binary");
        condRep = &condStore.emplace<ConditionReplay>(trace->streams());
        conds = condRep;
    }
    if (dec == nullptr) {
        ownedDec = std::make_unique<const DecodedProgram>(prog);
        dec = ownedDec.get();
    } else {
        panicIfNot(dec->source() == &prog,
                   "decoded program was built from a different binary");
    }
    ops = dec->ops().data();
    numOps = static_cast<std::uint32_t>(dec->size());
    curIdx = static_cast<std::uint32_t>(curPc / isa::instBytes);
    predRegs[isa::regP0] = 1;
    // Non-zero initial register contents so address streams vary.
    for (RegIndex r = 1; r < isa::numIntRegs; ++r)
        intRegs[r] = rng.next64();
}

void
Emulator::recordConditions(std::vector<ConditionStream> *streams)
{
    panicIfNot(condGen != nullptr,
               "cannot record conditions while replaying a trace");
    condGen->recordInto(streams);
}

Emulator::Checkpoint
Emulator::checkpoint()
{
    Checkpoint c;
    c.intRegs = intRegs;
    c.fpRegs = fpRegs;
    c.predRegs = predRegs;
    c.dataMem = PagedImage::capture(mem.words, mem.matched, mem.dirty);
    mem.matched = c.dataMem.pages();
    std::fill(mem.dirty.begin(), mem.dirty.end(), 0);
    c.callStack = callStack;
    c.pc = curPc;
    c.numInsts = numInsts;
    c.conds = conds->checkpoint();
    c.rng = rng.state();
    return c;
}

void
Emulator::restore(const Checkpoint &ckpt)
{
    panicIfNot(ckpt.intRegs.size() == intRegs.size() &&
               ckpt.fpRegs.size() == fpRegs.size() &&
               ckpt.predRegs.size() == predRegs.size() &&
               ckpt.dataMem.size() == mem.words.size(),
               "emulator checkpoint is for a different program");
    panicIfNot(pcInImage(program, ckpt.pc),
               "emulator checkpoint PC outside the code image");
    intRegs = ckpt.intRegs;
    fpRegs = ckpt.fpRegs;
    for (std::size_t i = 0; i < predRegs.size(); ++i)
        predRegs[i] = ckpt.predRegs[i] != 0 ? 1 : 0;
    // Outside dirty pages the segment equals the matched image, so a
    // page needs writing only if it is dirty or its page differs.
    const std::vector<PagedImage::PagePtr> &pages = ckpt.dataMem.pages();
    for (std::size_t p = 0; p < pages.size(); ++p) {
        if (mem.dirty[p] == 0 && mem.matched[p] == pages[p])
            continue;
        const std::size_t first = p * PagedImage::kPageWords;
        const std::size_t n =
            std::min(PagedImage::kPageWords, mem.words.size() - first);
        if (pages[p] != nullptr)
            std::copy_n(pages[p]->begin(), n, mem.words.begin() + first);
        else
            std::fill_n(mem.words.begin() + first, n, 0);
        mem.matched[p] = pages[p];
        mem.dirty[p] = 0;
    }
    callStack = ckpt.callStack;
    curPc = ckpt.pc;
    curIdx = static_cast<std::uint32_t>(curPc / isa::instBytes);
    numInsts = ckpt.numInsts;
    conds->restore(ckpt.conds);
    rng.setState(ckpt.rng);
}

// ---------------------------------------------------------------------
// Checkpoint byte serialization: versioned little-endian u64 stream on
// the shared framing (common/bytestream.hh). Condition state is sparse
// — one (id, cursor, last) entry per condition the execution actually
// touched — and dataMem is sparse (index, word) pairs against a base
// image: the previous checkpoint, or zeros for a first image. Every
// field is canonical, so an image that decodes re-encodes to itself.
// ---------------------------------------------------------------------

namespace
{

constexpr std::uint64_t kCkptMagic = 0x70706d75636b7033ull; // "ppemuckp3"
constexpr std::uint64_t kCkptDeltaMagic =
    0x70706d75636b6431ull; // "ppemuckd1"
constexpr const char *kCkptWhat = "emulator checkpoint image";
constexpr std::uint64_t kU32Limit = 1ull << 32;

/** Everything before dataMem, in image order. */
void
putHead(std::vector<std::uint8_t> &out, const Emulator::Checkpoint &c)
{
    putU64Vec(out, c.intRegs);
    putU64Vec(out, c.fpRegs);
    putU64(out, c.predRegs.size());
    for (const std::uint8_t p : c.predRegs)
        putU64(out, p);
}

void
readHead(ByteReader &r, Emulator::Checkpoint &c)
{
    c.intRegs = r.u64Vec();
    c.fpRegs = r.u64Vec();
    c.predRegs.resize(r.length());
    for (auto &p : c.predRegs)
        p = static_cast<std::uint8_t>(r.u64Below(2));
}

/** The words of @p mem that differ from @p base, as ascending pairs. */
void
putMem(std::vector<std::uint8_t> &out, const PagedImage &mem,
       const PagedImage &base)
{
    const std::vector<std::size_t> changed = mem.diff(base);
    putU64(out, changed.size());
    for (const std::size_t i : changed) {
        putU64(out, i);
        putU64(out, mem[i]);
    }
}

PagedImage
readMem(ByteReader &r, const PagedImage &base)
{
    PagedImage::Builder mem(base);
    const std::size_t changed = r.length(2);
    std::uint64_t next = 0; // the lowest index the next pair may name
    for (std::size_t i = 0; i < changed; ++i) {
        const std::size_t field = r.at;
        const std::uint64_t idx = r.u64();
        if (idx >= base.size())
            r.fail(ArtifactError::Kind::Malformed, field,
                   "delta touches memory out of range");
        if (idx < next)
            r.fail(ArtifactError::Kind::Malformed, field,
                   "delta indices not strictly increasing");
        const std::uint64_t value = r.u64();
        if (value == base[idx])
            r.fail(ArtifactError::Kind::Malformed, field,
                   "delta stores the word its base holds");
        mem.set(static_cast<std::size_t>(idx), value);
        next = idx + 1;
    }
    return std::move(mem).publish();
}

/** Everything after dataMem, in image order. */
void
putTail(std::vector<std::uint8_t> &out, const Emulator::Checkpoint &c)
{
    putU64Vec(out, c.callStack);
    putU64(out, c.pc);
    putU64(out, c.numInsts);
    putU64(out, c.conds.numConds);
    putU64(out, c.conds.replay ? 1 : 0);
    putU64(out, c.conds.ids.size());
    for (std::size_t i = 0; i < c.conds.ids.size(); ++i) {
        putU64(out, c.conds.ids[i]);
        putU64(out, c.conds.pos[i]);
        putU64(out, c.conds.last[i]);
    }
    for (const std::uint64_t w : c.conds.rng)
        putU64(out, w);
    for (const std::uint64_t w : c.rng)
        putU64(out, w);
}

void
readTail(ByteReader &r, Emulator::Checkpoint &c)
{
    c.callStack = r.u64Vec();
    c.pc = r.u64();
    c.numInsts = r.u64();
    c.conds.numConds = static_cast<std::uint32_t>(r.u64Below(kU32Limit));
    c.conds.replay = r.u64Below(2) != 0;
    const std::size_t touched = r.length(3);
    c.conds.ids.resize(touched);
    c.conds.pos.resize(touched);
    c.conds.last.resize(touched);
    for (std::size_t i = 0; i < touched; ++i) {
        const std::size_t field = r.at;
        c.conds.ids[i] = static_cast<CondId>(r.u64Below(c.conds.numConds));
        if (i > 0 && c.conds.ids[i] <= c.conds.ids[i - 1])
            r.fail(ArtifactError::Kind::Malformed, field,
                   "condition ids not strictly ascending");
        c.conds.pos[i] = static_cast<std::uint32_t>(r.u64Below(kU32Limit));
        c.conds.last[i] = static_cast<std::uint8_t>(r.u64Below(2));
    }
    for (auto &w : c.conds.rng)
        w = r.u64();
    for (auto &w : c.rng)
        w = r.u64();
}

} // namespace

std::vector<std::uint8_t>
Emulator::Checkpoint::serialize(const Checkpoint *base) const
{
    std::vector<std::uint8_t> out;
    putU64(out, base == nullptr ? kCkptMagic : kCkptDeltaMagic);
    putHead(out, *this);
    if (base == nullptr) {
        putU64(out, dataMem.size());
        putMem(out, dataMem, PagedImage::zeros(dataMem.size()));
    } else {
        putMem(out, dataMem, base->dataMem);
    }
    putTail(out, *this);
    return out;
}

Emulator::Checkpoint
Emulator::Checkpoint::deserialize(ByteReader &r, const Checkpoint *base)
{
    const std::size_t magic_at = r.at;
    if (r.u64() != (base == nullptr ? kCkptMagic : kCkptDeltaMagic))
        r.fail(ArtifactError::Kind::BadMagic, magic_at,
               base == nullptr
                   ? "not an emulator checkpoint image (bad magic)"
                   : "not an emulator checkpoint delta image (bad magic)");
    Checkpoint c;
    readHead(r, c);
    if (base == nullptr) {
        // Bounded before the base image's page table is allocated.
        const std::size_t words_at = r.at;
        const std::uint64_t words = r.u64();
        if (words > kWarmIndexLimit)
            r.fail(ArtifactError::Kind::Malformed, words_at,
                   "data segment larger than 2^26 words");
        c.dataMem = readMem(r, PagedImage::zeros(words));
    } else {
        c.dataMem = readMem(r, base->dataMem);
    }
    readTail(r, c);
    return c;
}

Emulator::Checkpoint
Emulator::Checkpoint::deserialize(const std::vector<std::uint8_t> &bytes,
                                  const Checkpoint *base)
{
    ByteReader r{bytes, kCkptWhat};
    Checkpoint c = deserialize(r, base);
    r.expectEnd();
    return c;
}

std::uint64_t
Emulator::readInt(RegIndex idx) const
{
    return idx == isa::regR0 ? 0 : intRegs[idx];
}

void
Emulator::writeInt(RegIndex idx, std::uint64_t val)
{
    if (idx != isa::regR0)
        intRegs[idx] = val;
}

void
Emulator::writePred(RegIndex idx, bool val, bool &written_flag,
                    bool &val_flag)
{
    if (idx == isa::regP0 || idx == invalidReg)
        return; // p0 is read-only; writes are architecturally discarded
    predRegs[idx] = val;
    written_flag = true;
    val_flag = val;
}

Addr
Emulator::effAddr(std::uint64_t base, std::int64_t disp) const
{
    const std::uint64_t bytes = mem.words.size() * 8;
    return (base + static_cast<std::uint64_t>(disp)) & (bytes - 1) & ~7ull;
}

void
Emulator::checkInImage() const
{
    panicIfNot(curPc % isa::instBytes == 0 && curIdx < numOps,
               "emulator PC left the code image");
}

ExecRecord
Emulator::step()
{
    checkInImage();
    ExecRecord rec;
    std::uint64_t mask = 0;
    execOne<ExecTier::Produce, FfSink>(&rec, nullptr, mask);
    return rec;
}

void
Emulator::produce(ExecRing &ring, std::uint64_t min_records)
{
    std::uint64_t emitted = 0;
    std::uint64_t mask = 0;
    while (emitted < min_records) {
        checkInImage();
        // One whole basic block per setup: everything before the run's
        // last op is straight-line by construction, so the inner loop
        // needs no per-op image checks.
        const std::uint16_t len = ops[curIdx].bbLen;
        for (std::uint16_t k = 0; k < len; ++k)
            execOne<ExecTier::Produce, FfSink>(&ring.push(), nullptr, mask);
        emitted += len;
    }
}

std::uint64_t
Emulator::skip(std::uint64_t n, FfSink *sink)
{
    std::uint64_t mask = 0;
    std::uint64_t done = 0;
    while (done < n) {
        checkInImage();
        const std::uint64_t len = std::min<std::uint64_t>(
            ops[curIdx].bbLen, n - done);
        for (std::uint64_t k = 0; k < len; ++k)
            execOne<ExecTier::Skip, FfSink>(nullptr, sink, mask);
        done += len;
    }
    return mask;
}

// ---------------------------------------------------------------------
// Reference interpreter (the pre-decode switch over isa::Instruction).
// Retained verbatim as the differential-testing baseline: the decoded
// tiers above must replay byte-identical ExecRecords and state against
// this implementation (tests/program/test_decoded.cpp pins it).
// ---------------------------------------------------------------------

ExecRecord
Emulator::stepLegacy()
{
    const isa::Instruction *ins = program.at(curPc);
    panicIfNot(ins != nullptr, "emulator PC left the code image");

    ExecRecord rec;
    rec.pc = curPc;
    rec.ins = ins;
    rec.qpVal = predRegs[ins->qp];
    rec.nextPc = curPc + isa::instBytes;

    using isa::Opcode;

    switch (ins->op) {
      case Opcode::Nop:
        break;

      case Opcode::IAdd:
      case Opcode::ISub:
      case Opcode::IAnd:
      case Opcode::IOr:
      case Opcode::IXor:
      case Opcode::IShl:
      case Opcode::IMul: {
        if (!rec.qpVal)
            break;
        const std::uint64_t a = readInt(ins->src1);
        const std::uint64_t b =
            ins->src2 == invalidReg ? 0 : readInt(ins->src2);
        std::uint64_t r = 0;
        switch (ins->op) {
          case Opcode::IAdd: r = a + b; break;
          case Opcode::ISub: r = a - b; break;
          case Opcode::IAnd: r = a & b; break;
          case Opcode::IOr: r = a | b; break;
          case Opcode::IXor: r = a ^ b; break;
          case Opcode::IShl: r = a << (ins->imm & 63); break;
          case Opcode::IMul: r = a * b; break;
          default: break;
        }
        writeInt(ins->dst, r);
        break;
      }

      case Opcode::IMovImm:
        if (rec.qpVal)
            writeInt(ins->dst, static_cast<std::uint64_t>(ins->imm));
        break;

      case Opcode::IMov:
        if (rec.qpVal)
            writeInt(ins->dst, readInt(ins->src1));
        break;

      case Opcode::FAdd:
      case Opcode::FMul:
      case Opcode::FDiv: {
        if (!rec.qpVal)
            break;
        // FP payloads are mixed integers: the oracle only needs
        // deterministic, data-dependent-looking values.
        const std::uint64_t a = fpRegs[ins->src1];
        const std::uint64_t b =
            ins->src2 == invalidReg ? 0 : fpRegs[ins->src2];
        fpRegs[ins->dst] = mix64(a + kFpMix * (b + 1));
        break;
      }

      case Opcode::FMov:
        if (rec.qpVal)
            fpRegs[ins->dst] = fpRegs[ins->src1];
        break;

      case Opcode::Ld:
      case Opcode::FLd: {
        if (!rec.qpVal)
            break;
        rec.memAddr = effAddr(readInt(ins->src1), ins->imm);
        const std::uint64_t v = mem.words[rec.memAddr / 8];
        if (ins->op == Opcode::Ld)
            writeInt(ins->dst, v);
        else
            fpRegs[ins->dst] = v;
        break;
      }

      case Opcode::St:
      case Opcode::FSt: {
        if (!rec.qpVal)
            break;
        rec.memAddr = effAddr(readInt(ins->src1), ins->imm);
        const std::uint64_t v = ins->op == Opcode::St
            ? readInt(ins->src2) : fpRegs[ins->src2];
        storeWord(rec.memAddr, v);
        break;
      }

      case Opcode::Cmp: {
        // IA-64 compare-type semantics; see isa/opcodes.hh.
        using isa::CmpType;
        switch (ins->ctype) {
          case CmpType::Unc:
            // Always writes both targets: QP & cond / QP & !cond.
            rec.condVal = rec.qpVal ? evalCond(ins->condId) : false;
            writePred(ins->pdst1, rec.qpVal && rec.condVal,
                      rec.pd1Written, rec.pd1Val);
            writePred(ins->pdst2, rec.qpVal && !rec.condVal,
                      rec.pd2Written, rec.pd2Val);
            break;
          case CmpType::Normal:
            if (rec.qpVal) {
                rec.condVal = evalCond(ins->condId);
                writePred(ins->pdst1, rec.condVal, rec.pd1Written,
                          rec.pd1Val);
                writePred(ins->pdst2, !rec.condVal, rec.pd2Written,
                          rec.pd2Val);
            }
            break;
          case CmpType::And:
            if (rec.qpVal) {
                rec.condVal = evalCond(ins->condId);
                if (!rec.condVal) {
                    writePred(ins->pdst1, false, rec.pd1Written,
                              rec.pd1Val);
                    writePred(ins->pdst2, false, rec.pd2Written,
                              rec.pd2Val);
                }
            }
            break;
          case CmpType::Or:
            if (rec.qpVal) {
                rec.condVal = evalCond(ins->condId);
                if (rec.condVal) {
                    writePred(ins->pdst1, true, rec.pd1Written, rec.pd1Val);
                    writePred(ins->pdst2, true, rec.pd2Written, rec.pd2Val);
                }
            }
            break;
        }
        break;
      }

      case Opcode::Br:
        if (rec.qpVal) {
            rec.branchTaken = true;
            rec.nextPc = ins->target;
        }
        break;

      case Opcode::BrCall:
        if (rec.qpVal) {
            rec.branchTaken = true;
            callStack.push_back(curPc + isa::instBytes);
            rec.nextPc = ins->target;
        }
        break;

      case Opcode::BrRet:
        if (rec.qpVal) {
            panicIfNot(!callStack.empty(), "return with empty call stack");
            rec.branchTaken = true;
            rec.nextPc = callStack.back();
            callStack.pop_back();
        }
        break;

      default:
        panic("emulator: unknown opcode");
    }

    curPc = rec.nextPc;
    curIdx = static_cast<std::uint32_t>(curPc / isa::instBytes);
    ++numInsts;
    return rec;
}

} // namespace program
} // namespace pp
