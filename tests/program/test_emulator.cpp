/** @file Unit tests for the functional emulator (the oracle). */

#include <gtest/gtest.h>

#include "common/bytestream.hh"
#include "program/asmprog.hh"
#include "program/codegen.hh"
#include "program/emulator.hh"
#include "program/suite.hh"

using namespace pp;
using namespace pp::program;
using namespace pp::isa;

namespace
{

/** Build a tiny program ending in an infinite self-loop. */
Program
assembleWithLoop(AsmProgram &p)
{
    const LabelId self = p.newLabel();
    p.placeLabel(self);
    p.emit(makeBranch(0), self);
    return p.assemble(1 << 20, "t");
}

} // namespace

TEST(Emulator, IntegerAluOps)
{
    AsmProgram p;
    p.emit(makeMovImm(1, 6));
    p.emit(makeMovImm(2, 3));
    p.emit(makeAlu(Opcode::IAdd, 3, 1, 2));
    p.emit(makeAlu(Opcode::ISub, 4, 1, 2));
    p.emit(makeAlu(Opcode::IAnd, 5, 1, 2));
    p.emit(makeAlu(Opcode::IOr, 6, 1, 2));
    p.emit(makeAlu(Opcode::IXor, 7, 1, 2));
    p.emit(makeAlu(Opcode::IMul, 8, 1, 2));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    for (int i = 0; i < 8; ++i)
        emu.step();
    EXPECT_EQ(emu.intReg(3), 9u);
    EXPECT_EQ(emu.intReg(4), 3u);
    EXPECT_EQ(emu.intReg(5), 2u);
    EXPECT_EQ(emu.intReg(6), 7u);
    EXPECT_EQ(emu.intReg(7), 5u);
    EXPECT_EQ(emu.intReg(8), 18u);
}

TEST(Emulator, R0ReadsZeroAndDiscardsWrites)
{
    AsmProgram p;
    p.emit(makeMovImm(0, 55));
    p.emit(makeAlu(Opcode::IAdd, 1, 0, 0));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    emu.step();
    emu.step();
    EXPECT_EQ(emu.intReg(0), 0u);
    EXPECT_EQ(emu.intReg(1), 0u);
}

TEST(Emulator, StoreLoadRoundTrip)
{
    AsmProgram p;
    p.emit(makeMovImm(1, 0x100));
    p.emit(makeMovImm(2, 0xdead));
    p.emit(makeStore(2, 1, 8));
    p.emit(makeLoad(3, 1, 8));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    for (int i = 0; i < 4; ++i)
        emu.step();
    EXPECT_EQ(emu.intReg(3), 0xdeadu);
}

TEST(Emulator, EffectiveAddressWrapsIntoSegment)
{
    AsmProgram p;
    p.emit(makeMovImm(1, -1)); // huge unsigned base
    p.emit(makeStore(1, 1, 0));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    emu.step();
    const ExecRecord rec = emu.step();
    EXPECT_LT(rec.memAddr, bin.dataSize());
    EXPECT_EQ(rec.memAddr % 8, 0u);
}

TEST(Emulator, PredicationSuppressesExecution)
{
    AsmProgram p;
    const CondId c = p.addCondition(ConditionSpec::biased(0.0)); // false
    p.emit(makeMovImm(1, 7));
    p.emit(makeCmp(CmpType::Unc, 2, 3, c)); // p2=false, p3=true
    p.emit(makeMovImm(1, 99, 2));           // guarded by false p2
    p.emit(makeMovImm(4, 42, 3));           // guarded by true p3
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    for (int i = 0; i < 4; ++i)
        emu.step();
    EXPECT_EQ(emu.intReg(1), 7u);  // unchanged
    EXPECT_EQ(emu.intReg(4), 42u); // executed
}

TEST(Emulator, CmpUncWritesBothTargets)
{
    AsmProgram p;
    const CondId c = p.addCondition(ConditionSpec::biased(1.0)); // true
    p.emit(makeCmp(CmpType::Unc, 1, 2, c));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    const ExecRecord rec = emu.step();
    EXPECT_TRUE(rec.pd1Written);
    EXPECT_TRUE(rec.pd2Written);
    EXPECT_TRUE(rec.pd1Val);
    EXPECT_FALSE(rec.pd2Val);
    EXPECT_TRUE(emu.predReg(1));
    EXPECT_FALSE(emu.predReg(2));
}

TEST(Emulator, CmpUncWithFalseQpClearsBoth)
{
    AsmProgram p;
    const CondId cf = p.addCondition(ConditionSpec::biased(0.0));
    const CondId ct = p.addCondition(ConditionSpec::biased(1.0));
    p.emit(makeCmp(CmpType::Unc, 1, 2, cf)); // p1=0 p2=1
    // cmp.unc guarded by the false p1: both targets cleared.
    p.emit(makeCmp(CmpType::Unc, 3, 4, ct, invalidReg, invalidReg, 1));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    emu.step();
    const ExecRecord rec = emu.step();
    EXPECT_FALSE(rec.qpVal);
    EXPECT_TRUE(rec.pd1Written);
    EXPECT_FALSE(rec.pd1Val);
    EXPECT_FALSE(rec.pd2Val);
}

TEST(Emulator, CmpNormalLeavesTargetsWhenQpFalse)
{
    AsmProgram p;
    const CondId cf = p.addCondition(ConditionSpec::biased(0.0));
    const CondId ct = p.addCondition(ConditionSpec::biased(1.0));
    p.emit(makeCmp(CmpType::Unc, 5, 6, ct));  // p5=1 p6=0
    p.emit(makeCmp(CmpType::Unc, 1, 2, cf));  // p1=0 p2=1
    Instruction normal = makeCmp(CmpType::Normal, 5, 6, ct);
    normal.qp = 1; // false guard
    p.emit(normal);
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    emu.step();
    emu.step();
    const ExecRecord rec = emu.step();
    EXPECT_FALSE(rec.pd1Written);
    EXPECT_TRUE(emu.predReg(5));  // unchanged
    EXPECT_FALSE(emu.predReg(6));
}

TEST(Emulator, CmpAndOrSemantics)
{
    AsmProgram p;
    const CondId ct = p.addCondition(ConditionSpec::biased(1.0));
    const CondId cf = p.addCondition(ConditionSpec::biased(0.0));
    p.emit(makeCmp(CmpType::Unc, 1, 2, ct));  // p1=1, p2=0
    // and-type with false condition: clears both targets.
    p.emit(makeCmp(CmpType::And, 1, 3, cf));
    // or-type with true condition: sets both targets.
    p.emit(makeCmp(CmpType::Or, 2, 4, ct));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    emu.step();
    emu.step();
    EXPECT_FALSE(emu.predReg(1)); // cleared by cmp.and
    emu.step();
    EXPECT_TRUE(emu.predReg(2)); // set by cmp.or
    EXPECT_TRUE(emu.predReg(4));
}

TEST(Emulator, P0IsNeverWritten)
{
    AsmProgram p;
    const CondId cf = p.addCondition(ConditionSpec::biased(0.0));
    p.emit(makeCmp(CmpType::Unc, 1, 0, cf)); // pdst2 == p0
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    const ExecRecord rec = emu.step();
    EXPECT_FALSE(rec.pd2Written);
    EXPECT_TRUE(emu.predReg(0));
}

TEST(Emulator, BranchTakenAndNotTaken)
{
    AsmProgram p;
    const CondId ct = p.addCondition(ConditionSpec::biased(1.0));
    const LabelId target = p.newLabel();
    p.emit(makeCmp(CmpType::Unc, 1, 2, ct)); // p1=1, p2=0
    p.emit(makeBranch(0, 2), target);        // not taken (p2 false)
    p.emit(makeBranch(0, 1), target);        // taken (p1 true)
    p.emit(makeNop());
    p.placeLabel(target);
    p.emit(makeNop());
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    emu.step();
    const ExecRecord nt = emu.step();
    EXPECT_FALSE(nt.branchTaken);
    EXPECT_EQ(nt.nextPc, nt.pc + instBytes);
    const ExecRecord tk = emu.step();
    EXPECT_TRUE(tk.branchTaken);
    EXPECT_EQ(tk.nextPc, Program::addrOf(4));
}

TEST(Emulator, CallAndReturn)
{
    AsmProgram p;
    const LabelId func = p.newLabel();
    p.emit(makeCall(0), func);  // 0
    p.emit(makeNop());          // 1 <- return lands here
    const LabelId self = p.newLabel();
    p.placeLabel(self);
    p.emit(makeBranch(0), self);// 2
    p.placeLabel(func);
    p.emit(makeNop());          // 3
    p.emit(makeRet());          // 4
    const Program bin = p.assemble(1 << 20, "t");
    Emulator emu(bin, 1);
    const ExecRecord call = emu.step();
    EXPECT_TRUE(call.branchTaken);
    EXPECT_EQ(call.nextPc, Program::addrOf(3));
    EXPECT_EQ(emu.callDepth(), 1u);
    emu.step(); // nop in func
    const ExecRecord ret = emu.step();
    EXPECT_EQ(ret.nextPc, Program::addrOf(1));
    EXPECT_EQ(emu.callDepth(), 0u);
}

TEST(Emulator, DeterministicReplay)
{
    AsmProgram p;
    const CondId c = p.addCondition(ConditionSpec::dataDep(0.5));
    const LabelId skip = p.newLabel();
    p.emit(makeCmp(CmpType::Unc, 1, 2, c));
    p.emit(makeBranch(0, 2), skip);
    p.emit(makeAlu(Opcode::IAdd, 3, 3, 3));
    p.placeLabel(skip);
    const LabelId top = p.newLabel();
    // Loop back to the start (address 0).
    p.emit(makeBranch(0), top);
    // place the label at the first instruction via a second program copy:
    const Program bin = [&] {
        AsmProgram q;
        const CondId qc = q.addCondition(ConditionSpec::dataDep(0.5));
        const LabelId qtop = q.newLabel();
        q.placeLabel(qtop);
        const LabelId qskip = q.newLabel();
        q.emit(makeCmp(CmpType::Unc, 1, 2, qc));
        q.emit(makeBranch(0, 2), qskip);
        q.emit(makeAlu(Opcode::IAdd, 3, 3, 3));
        q.placeLabel(qskip);
        q.emit(makeBranch(0), qtop);
        return q.assemble(1 << 20, "t");
    }();
    Emulator a(bin, 42), b(bin, 42);
    for (int i = 0; i < 5000; ++i) {
        const ExecRecord ra = a.step();
        const ExecRecord rb = b.step();
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.branchTaken, rb.branchTaken);
    }
}

namespace
{

/** A real generated benchmark: calls, loops, stores, every cond kind. */
Program
generatedBenchmark()
{
    const BenchmarkProfile profile = profileByName("gzip");
    CodeGenerator gen(profile);
    AsmProgram asm_prog = gen.generate();
    return asm_prog.assemble(profile.dataBytes, profile.name);
}

void
expectRecordsEqual(const ExecRecord &a, const ExecRecord &b, int step)
{
    ASSERT_EQ(a.pc, b.pc) << "step " << step;
    ASSERT_EQ(a.ins, b.ins) << "step " << step;
    ASSERT_EQ(a.qpVal, b.qpVal) << "step " << step;
    ASSERT_EQ(a.condVal, b.condVal) << "step " << step;
    ASSERT_EQ(a.pd1Written, b.pd1Written) << "step " << step;
    ASSERT_EQ(a.pd2Written, b.pd2Written) << "step " << step;
    ASSERT_EQ(a.pd1Val, b.pd1Val) << "step " << step;
    ASSERT_EQ(a.pd2Val, b.pd2Val) << "step " << step;
    ASSERT_EQ(a.branchTaken, b.branchTaken) << "step " << step;
    ASSERT_EQ(a.nextPc, b.nextPc) << "step " << step;
    ASSERT_EQ(a.memAddr, b.memAddr) << "step " << step;
}

} // namespace

TEST(EmulatorCheckpoint, SerializedRoundTripResumesBitIdentically)
{
    const Program bin = generatedBenchmark();

    // Reference: an uninterrupted run past the checkpoint position.
    Emulator ref(bin, 42);
    ref.skip(20000);

    // Checkpoint a twin at the same position, through the byte image.
    Emulator src(bin, 42);
    src.skip(20000);
    const std::vector<std::uint8_t> image =
        src.checkpoint().serialize();
    const Emulator::Checkpoint restored =
        Emulator::Checkpoint::deserialize(image);

    // Restore into an emulator constructed with a DIFFERENT seed: every
    // piece of state (registers, memory, condition cursors, RNG
    // streams) must come from the checkpoint, none from construction.
    Emulator resumed(bin, 0xdeadbeef);
    resumed.restore(restored);

    EXPECT_EQ(resumed.pc(), ref.pc());
    EXPECT_EQ(resumed.instCount(), ref.instCount());
    EXPECT_EQ(resumed.callDepth(), ref.callDepth());

    for (int i = 0; i < 20000; ++i) {
        const ExecRecord ra = ref.step();
        const ExecRecord rb = resumed.step();
        expectRecordsEqual(ra, rb, i);
    }
    for (RegIndex r = 0; r < isa::numIntRegs; ++r)
        ASSERT_EQ(resumed.intReg(r), ref.intReg(r)) << "r" << int(r);
    for (RegIndex r = 0; r < isa::numFpRegs; ++r)
        ASSERT_EQ(resumed.fpReg(r), ref.fpReg(r)) << "f" << int(r);
    for (RegIndex r = 0; r < isa::numPredRegs; ++r)
        ASSERT_EQ(resumed.predReg(r), ref.predReg(r)) << "p" << int(r);
}

TEST(EmulatorCheckpoint, SkipMatchesSteppedExecution)
{
    const Program bin = generatedBenchmark();
    Emulator a(bin, 7);
    Emulator b(bin, 7);
    a.skip(12345);
    for (int i = 0; i < 12345; ++i)
        b.step();
    EXPECT_EQ(a.pc(), b.pc());
    EXPECT_EQ(a.instCount(), b.instCount());
    for (RegIndex r = 0; r < isa::numIntRegs; ++r)
        ASSERT_EQ(a.intReg(r), b.intReg(r));
}

TEST(EmulatorCheckpoint, UntouchedConditionStreamsAreSkipped)
{
    // Two conditions, of which execution only ever evaluates one: the
    // serialized checkpoint must carry exactly one condition entry, not
    // dense rows for the whole table.
    AsmProgram p;
    const CondId used = p.addCondition(ConditionSpec::loop(5));
    const CondId unused = p.addCondition(ConditionSpec::loop(7));
    (void)unused;
    p.emit(makeCmp(CmpType::Unc, 1, 2, used));
    const Program bin = assembleWithLoop(p);

    Emulator emu(bin, 3);
    const Emulator::Checkpoint fresh = emu.checkpoint();
    EXPECT_EQ(fresh.conds.numConds, 2u);
    EXPECT_TRUE(fresh.conds.ids.empty());

    emu.step(); // the one compare
    const Emulator::Checkpoint after = emu.checkpoint();
    ASSERT_EQ(after.conds.ids.size(), 1u);
    EXPECT_EQ(after.conds.ids[0], used);

    // The sparse image round-trips and is smaller than the fresh-state
    // image plus two dense condition rows would be: exactly one
    // 3-word entry separates the two serializations.
    const auto fresh_img = fresh.serialize();
    const auto after_img = after.serialize();
    EXPECT_EQ(after_img.size(), fresh_img.size() + 3 * 8);

    Emulator resumed(bin, 99);
    resumed.restore(Emulator::Checkpoint::deserialize(after_img));
    Emulator ref(bin, 3);
    ref.step();
    for (int i = 0; i < 2000; ++i) {
        const ExecRecord ra = ref.step();
        const ExecRecord rb = resumed.step();
        expectRecordsEqual(ra, rb, i);
    }
}

TEST(PagedImage, SharesUnchangedPagesAndNeverWritesSharedOnes)
{
    constexpr std::size_t kW = PagedImage::kPageWords;
    // Three whole pages and a partial fourth; only page 1 is non-zero.
    std::vector<std::uint64_t> mem(3 * kW + 7, 0);
    mem[kW + 5] = 11;
    const PagedImage zeros = PagedImage::zeros(mem.size());
    ASSERT_EQ(zeros.pages(),
              std::vector<PagedImage::PagePtr>(4, nullptr));
    PagedImage::Builder from_zeros(zeros);
    from_zeros.set(kW + 5, 11);
    from_zeros.set(2 * kW, 0); // unchanged: no page is made
    const PagedImage a = std::move(from_zeros).publish();
    ASSERT_EQ(a.size(), mem.size());
    ASSERT_EQ(a.pages().size(), 4u);
    EXPECT_EQ(a.pages()[0], nullptr); // a zero page is null
    ASSERT_NE(a.pages()[1], nullptr);
    EXPECT_EQ(a.pages()[2], nullptr);
    EXPECT_EQ(a.diff(zeros), (std::vector<std::size_t>{kW + 5}));

    // Edited from a, the untouched page is the same object.
    PagedImage::Builder from_a(a);
    from_a.set(2 * kW, 22);
    from_a.set(3 * kW + 6, 33);
    const PagedImage b = std::move(from_a).publish();
    EXPECT_EQ(b.pages()[1], a.pages()[1]);
    EXPECT_EQ(b.diff(a), (std::vector<std::size_t>{2 * kW, 3 * kW + 6}));

    // Editing b copies a page before writing it; b and a keep theirs.
    PagedImage::Builder edit(b);
    edit.set(kW + 5, 12);
    edit.set(2 * kW, 0);
    edit.set(3 * kW + 1, 44);
    edit.set(3 * kW + 1, 0); // written back: the page is b's again
    const PagedImage c = std::move(edit).publish();
    EXPECT_EQ(a[kW + 5], 11u);
    EXPECT_EQ(b[kW + 5], 11u);
    EXPECT_EQ(c[kW + 5], 12u);
    EXPECT_NE(c.pages()[1], b.pages()[1]);
    EXPECT_EQ(c.pages()[2], nullptr); // back to zeros: null again
    EXPECT_EQ(c.pages()[3], b.pages()[3]);

    mem[kW + 5] = 12;
    mem[3 * kW + 6] = 33;
    for (std::size_t i = 0; i < mem.size(); ++i)
        ASSERT_EQ(c[i], mem[i]) << "word " << i;
}

namespace
{

constexpr Addr kPageBytes = PagedImage::kPageWords * 8;

/** Emit `mem[page * 4 KiB + 8] = r<src>`, addressing through r1. */
void
emitStoreToPage(AsmProgram &p, unsigned page, RegIndex src)
{
    p.emit(makeMovImm(1, static_cast<std::int64_t>(page * kPageBytes)));
    p.emit(makeStore(src, 1, 8));
}

/** The word emitStoreToPage() writes on @p page. */
std::size_t
wordOnPage(unsigned page)
{
    return (page * kPageBytes + 8) / 8;
}

/** Word for word, @p a's data segment equals @p b's. */
void
expectSameMemory(const Emulator &a, const Emulator &b, std::size_t words)
{
    for (std::size_t i = 0; i < words; ++i)
        ASSERT_EQ(a.dataWord(i), b.dataWord(i)) << "word " << i;
}

} // namespace

TEST(EmulatorSegment, CheckpointReadsOnlyStoredPagesAndSharesTheRest)
{
    AsmProgram p;
    p.emit(makeMovImm(2, 11));
    p.emit(makeMovImm(3, 12));
    for (unsigned page : {2u, 3u, 6u, 7u})
        emitStoreToPage(p, page, 2); // 10 instructions in all
    emitStoreToPage(p, 2, 2);        // stored, but unchanged
    emitStoreToPage(p, 3, 0);        // back to zeros (r0 reads 0)
    emitStoreToPage(p, 4, 2);        // a new page
    emitStoreToPage(p, 7, 3);        // changed
    const Program bin = assembleWithLoop(p);

    Emulator emu(bin, 1);
    for (int i = 0; i < 10; ++i)
        emu.step();
    const Emulator::Checkpoint a = emu.checkpoint();
    const auto &ap = a.dataMem.pages();
    for (unsigned page : {2u, 3u, 6u, 7u})
        ASSERT_NE(ap[page], nullptr) << "page " << page;
    EXPECT_EQ(ap[4], nullptr);

    for (int i = 0; i < 8; ++i)
        emu.step();
    const Emulator::Checkpoint b = emu.checkpoint();
    const auto &bp = b.dataMem.pages();
    EXPECT_EQ(bp[6], ap[6]); // clean: shared, never read
    EXPECT_EQ(bp[2], ap[2]); // stored but equal: still shared
    EXPECT_EQ(bp[3], nullptr); // all zeros again: null
    ASSERT_NE(bp[4], nullptr); // new and non-zero: copied
    ASSERT_NE(bp[7], nullptr);
    EXPECT_NE(bp[7], ap[7]);   // changed: copied, a's page kept
    EXPECT_EQ(a.dataMem[wordOnPage(7)], 11u);
    EXPECT_EQ(b.dataMem[wordOnPage(7)], 12u);
    EXPECT_EQ(b.dataMem.diff(a.dataMem),
              (std::vector<std::size_t>{wordOnPage(3), wordOnPage(4),
                                        wordOnPage(7)}));

    // With no store since, the next capture is b's pages exactly.
    EXPECT_EQ(emu.checkpoint().dataMem.pages(), bp);
}

TEST(EmulatorSegment, RestoreAfterStoresMatchesAFreshRestore)
{
    // Stores land on pages that are null in the checkpoint taken before
    // them: restore() must zero those, though their page pointers match.
    AsmProgram p;
    p.emit(makeMovImm(2, 5));
    emitStoreToPage(p, 9, 2);
    emitStoreToPage(p, 10, 2);
    const Program bin = assembleWithLoop(p);

    Emulator emu(bin, 1);
    const Emulator::Checkpoint before = emu.checkpoint();
    for (int i = 0; i < 3; ++i)
        emu.step();
    const Emulator::Checkpoint after_one = emu.checkpoint();
    for (int i = 0; i < 2; ++i)
        emu.step();
    ASSERT_EQ(emu.dataWord(wordOnPage(10)), 5u);

    const std::size_t words = bin.dataSize() / 8;
    emu.restore(before);
    Emulator fresh(bin, 2);
    fresh.restore(before);
    EXPECT_EQ(emu.dataWord(wordOnPage(9)), 0u);
    EXPECT_EQ(emu.dataWord(wordOnPage(10)), 0u);
    expectSameMemory(emu, fresh, words);

    // And forward again, onto a page the segment just zeroed.
    emu.restore(after_one);
    Emulator fresh_one(bin, 2);
    fresh_one.restore(after_one);
    EXPECT_EQ(emu.dataWord(wordOnPage(9)), 5u);
    expectSameMemory(emu, fresh_one, words);
    EXPECT_EQ(emu.checkpoint().dataMem.pages(),
              after_one.dataMem.pages());
}

TEST(EmulatorSegment, AdoptedSegmentRestoresLikeAFreshOne)
{
    // Windows of a real program, restored out of order into one segment
    // that each emulator runs and stores into before handing it on, then
    // a checkpoint of another program with the same segment size.
    const Program gzip = generatedBenchmark();
    const BenchmarkProfile twolf_profile = profileByName("twolf");
    ASSERT_EQ(twolf_profile.dataBytes, gzip.dataSize());
    const Program twolf = CodeGenerator(twolf_profile).generateBinary();

    std::vector<Emulator::Checkpoint> ckpts;
    Emulator builder(gzip, 42);
    for (int w = 0; w < 3; ++w) {
        builder.skip(15000);
        ckpts.push_back(builder.checkpoint());
    }
    Emulator other(twolf, 42);
    other.skip(15000);
    ckpts.push_back(other.checkpoint());

    Emulator::Segment segment;
    for (const std::size_t w : {2u, 0u, 1u, 3u}) {
        SCOPED_TRACE("window " + std::to_string(w));
        const Program &bin = w == 3 ? twolf : gzip;
        Emulator recycled(bin, nullptr, 7, nullptr, std::move(segment));
        recycled.restore(ckpts[w]);
        Emulator fresh(bin, 7);
        fresh.restore(ckpts[w]);
        expectSameMemory(recycled, fresh, bin.dataSize() / 8);
        for (int i = 0; i < 5000; ++i)
            expectRecordsEqual(recycled.step(), fresh.step(), i);
        segment = std::move(recycled).releaseSegment();
    }

    // A segment of another size is replaced, not adopted.
    AsmProgram p;
    p.emit(makeNop());
    const Program tiny = assembleWithLoop(p);
    Emulator small(tiny, nullptr, 1, nullptr, std::move(segment));
    EXPECT_EQ(std::move(small).releaseSegment().words.size(),
              tiny.dataSize() / 8);
}

TEST(EmulatorCheckpointDeath, RestoreRejectsForeignProgram)
{
    const Program big = generatedBenchmark();
    AsmProgram p;
    p.emit(makeNop());
    const Program tiny = p.assemble(1 << 20, "tiny");

    Emulator src(big, 1);
    src.skip(100);
    const Emulator::Checkpoint ckpt = src.checkpoint();
    Emulator other(tiny, 1);
    EXPECT_DEATH(other.restore(ckpt), "different program");
}

namespace
{

/** The kind of error deserialize() throws on @p image (over @p base). */
ArtifactError::Kind
decodeKind(const std::vector<std::uint8_t> &image,
           const Emulator::Checkpoint *base = nullptr)
{
    try {
        Emulator::Checkpoint::deserialize(image, base);
    } catch (const ArtifactError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "expected ArtifactError";
    return ArtifactError::Kind::Io;
}

} // namespace

TEST(EmulatorCheckpoint, DeserializeRejectsTruncatedImage)
{
    const Program bin = generatedBenchmark();
    Emulator emu(bin, 1);
    emu.skip(10);
    std::vector<std::uint8_t> image = emu.checkpoint().serialize();
    image.resize(image.size() / 2);
    EXPECT_EQ(decodeKind(image), ArtifactError::Kind::Truncated);
}

TEST(EmulatorCheckpoint, DeserializeRejectsBadMagic)
{
    std::vector<std::uint8_t> garbage(64, 0x5a);
    EXPECT_EQ(decodeKind(garbage), ArtifactError::Kind::BadMagic);
}

TEST(EmulatorCheckpoint, DeltaRoundTripsAndRejectsOutOfRangeStores)
{
    const Program bin = generatedBenchmark();
    Emulator emu(bin, 1);
    emu.skip(1000);
    const Emulator::Checkpoint base = emu.checkpoint();
    emu.skip(5000);
    const Emulator::Checkpoint later = emu.checkpoint();
    const std::vector<std::uint8_t> delta = later.serialize(&base);
    EXPECT_EQ(Emulator::Checkpoint::deserialize(delta, &base).serialize(),
              later.serialize());
    // A full image is not a delta, and a delta needs its base.
    EXPECT_EQ(decodeKind(later.serialize(), &base),
              ArtifactError::Kind::BadMagic);
    EXPECT_EQ(decodeKind(delta), ArtifactError::Kind::BadMagic);

    // The delta's first stored index, moved past the data segment: the
    // pairs follow the magic and the three length-prefixed register
    // files, behind their count.
    const std::size_t count_at =
        8 * (1 + 3 + later.intRegs.size() + later.fpRegs.size() +
             later.predRegs.size());
    std::vector<std::uint8_t> bad = delta;
    ASSERT_NE(bad[count_at], 0) << "the delta stores no word";
    for (std::size_t b = 0; b < 8; ++b)
        bad[count_at + 8 + b] =
            static_cast<std::uint8_t>(base.dataMem.size() >> (8 * b));
    try {
        Emulator::Checkpoint::deserialize(bad, &base);
        ADD_FAILURE() << "expected ArtifactError";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ArtifactError::Kind::Malformed) << e.what();
        EXPECT_EQ(e.offset(), count_at + 8);
    }
}

TEST(EmulatorCheckpoint, DecodingRejectsEveryFieldItsEncoderNeverWrites)
{
    const Program bin = generatedBenchmark();
    Emulator emu(bin, 1);
    emu.skip(1000);
    const Emulator::Checkpoint base = emu.checkpoint();
    emu.skip(5000);
    const Emulator::Checkpoint later = emu.checkpoint();
    ASSERT_GE(later.conds.ids.size(), 2u);

    // Field offsets: the magic and the three length-prefixed register
    // files, then (a first image's segment size and) the pair count.
    const std::size_t pred_at =
        8 * (1 + 3 + later.intRegs.size() + later.fpRegs.size());
    const std::size_t count_at = pred_at + 8 * later.predRegs.size();
    const std::vector<std::uint8_t> delta = later.serialize(&base);
    auto word = [](const std::vector<std::uint8_t> &img, std::size_t at) {
        std::uint64_t v = 0;
        for (std::size_t b = 0; b < 8; ++b)
            v |= static_cast<std::uint64_t>(img[at + b]) << (8 * b);
        return v;
    };
    const std::uint64_t pairs = word(delta, count_at);
    ASSERT_GE(pairs, 2u);
    const std::size_t pair_at = count_at + 8;
    // Past the pairs: call stack, pc, instruction count, then the
    // condition count, replay flag, entry count and (id, pos, last)s.
    const std::size_t conds_at = pair_at + 16 * pairs +
        8 * (1 + later.callStack.size() + 2);
    const std::size_t entry_at = conds_at + 8 * 3;

    // Each case sets one u64 field and names the offset it must fail at.
    auto expectMalformed = [&](std::vector<std::uint8_t> img,
                               const Emulator::Checkpoint *from,
                               std::size_t at, std::uint64_t v,
                               std::size_t fails_at) {
        for (std::size_t b = 0; b < 8; ++b)
            img[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
        try {
            Emulator::Checkpoint::deserialize(img, from);
            ADD_FAILURE() << "field at " << at << " accepted";
        } catch (const ArtifactError &e) {
            EXPECT_EQ(e.kind(), ArtifactError::Kind::Malformed) << e.what();
            EXPECT_EQ(e.offset(), fails_at) << e.what();
        }
    };
    const std::uint64_t idx0 = word(delta, pair_at);
    expectMalformed(delta, &base, pred_at, 2, pred_at);
    expectMalformed(delta, &base, pair_at + 16, idx0, pair_at + 16);
    expectMalformed(delta, &base, pair_at + 8, base.dataMem[idx0], pair_at);
    expectMalformed(delta, &base, conds_at,
                    (1ull << 32) | later.conds.numConds, conds_at);
    expectMalformed(delta, &base, conds_at + 8, 2, conds_at + 8);
    expectMalformed(delta, &base, entry_at, later.conds.numConds, entry_at);
    expectMalformed(delta, &base, entry_at + 24, later.conds.ids[0],
                    entry_at + 24);
    expectMalformed(delta, &base, entry_at + 8,
                    (1ull << 32) | later.conds.pos[0], entry_at + 8);
    expectMalformed(delta, &base, entry_at + 16, 2, entry_at + 16);

    // A first image's pairs are against zeros, behind the segment size:
    // a stored zero is a word the encoder never writes.
    const std::vector<std::uint8_t> first = later.serialize();
    EXPECT_EQ(word(first, count_at), later.dataMem.size());
    ASSERT_GE(word(first, count_at + 8), 1u);
    EXPECT_EQ(Emulator::Checkpoint::deserialize(first).serialize(), first);
    expectMalformed(first, nullptr, count_at + 8 + 8 + 8, 0,
                    count_at + 8 + 8);
}

TEST(EmulatorDeath, RunningOffImagePanics)
{
    AsmProgram p;
    p.emit(makeNop());
    const Program bin = p.assemble(1 << 20, "t");
    Emulator emu(bin, 1);
    emu.step();
    EXPECT_DEATH(emu.step(), "");
}

TEST(EmulatorDeath, ReturnWithEmptyStackPanics)
{
    AsmProgram p;
    p.emit(makeRet());
    const Program bin = p.assemble(1 << 20, "t");
    Emulator emu(bin, 1);
    EXPECT_DEATH(emu.step(), "");
}
