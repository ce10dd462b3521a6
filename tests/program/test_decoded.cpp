/**
 * @file
 * Differential tests for the predecoded micro-op stream: the decoded
 * hot path (step/produce/skip/warmForward) must be bit-identical to the
 * legacy reference interpreter (Emulator::stepLegacy) in records,
 * architectural state, and fast-forward event streams — over every
 * suite benchmark, both if-conversion variants.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "program/decoded.hh"
#include "program/emulator.hh"
#include "program/suite.hh"
#include "sim/simulator.hh"

using namespace pp;
using namespace pp::program;

namespace
{

void
expectRecordsEqual(const ExecRecord &a, const ExecRecord &b,
                   const std::string &what, std::uint64_t step)
{
    ASSERT_EQ(a.pc, b.pc) << what << " step " << step;
    ASSERT_EQ(a.ins, b.ins) << what << " step " << step;
    ASSERT_EQ(a.qpVal, b.qpVal) << what << " step " << step;
    ASSERT_EQ(a.condVal, b.condVal) << what << " step " << step;
    ASSERT_EQ(a.pd1Written, b.pd1Written) << what << " step " << step;
    ASSERT_EQ(a.pd2Written, b.pd2Written) << what << " step " << step;
    ASSERT_EQ(a.pd1Val, b.pd1Val) << what << " step " << step;
    ASSERT_EQ(a.pd2Val, b.pd2Val) << what << " step " << step;
    ASSERT_EQ(a.branchTaken, b.branchTaken) << what << " step " << step;
    ASSERT_EQ(a.nextPc, b.nextPc) << what << " step " << step;
    ASSERT_EQ(a.memAddr, b.memAddr) << what << " step " << step;
}

void
expectStateEqual(const Emulator &a, const Emulator &b,
                 const std::string &what)
{
    ASSERT_EQ(a.pc(), b.pc()) << what;
    ASSERT_EQ(a.instCount(), b.instCount()) << what;
    ASSERT_EQ(a.callDepth(), b.callDepth()) << what;
    for (RegIndex r = 0; r < isa::numIntRegs; ++r)
        ASSERT_EQ(a.intReg(r), b.intReg(r)) << what << " r" << int(r);
    for (RegIndex r = 0; r < isa::numFpRegs; ++r)
        ASSERT_EQ(a.fpReg(r), b.fpReg(r)) << what << " f" << int(r);
    for (RegIndex r = 0; r < isa::numPredRegs; ++r)
        ASSERT_EQ(a.predReg(r), b.predReg(r)) << what << " p" << int(r);
}

} // namespace

/**
 * The headline contract: on every suite benchmark (if-converted and
 * not), the decoded stream replays byte-identical ExecRecords against
 * the legacy interpreter and lands in identical architectural state.
 */
TEST(DecodedReplay, BitIdenticalToLegacyAcrossSuite)
{
    constexpr std::uint64_t kSteps = 4000;
    for (const auto &profile : program::extendedSuite()) {
        for (const bool ifc : {false, true}) {
            const sim::ProgramRef binary =
                sim::buildBinaryShared(profile, ifc);
            const DecodedProgram decoded(*binary);
            const std::string what =
                profile.name + (ifc ? "+ifc" : "");

            Emulator fast(*binary, &decoded, 42);
            Emulator ref(*binary, 42);
            for (std::uint64_t i = 0; i < kSteps; ++i) {
                const ExecRecord ra = ref.stepLegacy();
                const ExecRecord rb = fast.step();
                expectRecordsEqual(ra, rb, what, i);
            }
            expectStateEqual(ref, fast, what);
        }
    }
}

namespace
{

sim::ProgramRef
gzipBinary()
{
    return sim::buildBinaryShared(program::profileByName("gzip"), true);
}

} // namespace

/**
 * Batched production (whole basic blocks into the ring, including ring
 * growth past its initial capacity) yields the same record stream as
 * stepping one instruction at a time.
 */
TEST(DecodedReplay, ProducedBatchesMatchSteppedStream)
{
    const sim::ProgramRef binary = gzipBinary();
    Emulator producer(*binary, 7);
    Emulator stepper(*binary, 7);

    ExecRing ring;
    std::uint64_t produced = 0;
    // Irregular batch sizes; never popping forces the ring to grow and
    // re-lay its contents out, which must preserve order and content.
    const std::uint64_t batches[] = {1, 3, 17, 256, 1024, 4096};
    for (const std::uint64_t b : batches) {
        const std::uint64_t before = producer.instCount();
        producer.produce(ring, b);
        ASSERT_GE(producer.instCount() - before, b);
        produced = producer.instCount();
        ASSERT_EQ(ring.size(), produced);
    }
    for (std::uint64_t i = 0; i < produced; ++i) {
        const ExecRecord rs = stepper.step();
        expectRecordsEqual(rs, ring.at(i), "ring", i);
    }
    expectStateEqual(producer, stepper, "after production");
}

/**
 * Checkpoint/restore round-trip through a batched boundary: block
 * batching leaves the emulator mid-block; a serialized checkpoint taken
 * there must resume the stream bit-identically.
 */
TEST(DecodedReplay, CheckpointRoundTripAtBatchedBoundary)
{
    const sim::ProgramRef binary = gzipBinary();
    Emulator src(*binary, 11);

    ExecRing ring;
    src.produce(ring, 12345); // typically stops mid-request, block-aligned
    const std::uint64_t pos = src.instCount();

    const std::vector<std::uint8_t> image = src.checkpoint().serialize();
    Emulator resumed(*binary, 0xdeadbeef); // state must come from ckpt
    resumed.restore(Emulator::Checkpoint::deserialize(image));
    ASSERT_EQ(resumed.instCount(), pos);
    expectStateEqual(src, resumed, "restored");

    // Continue both: the source via batched production, the restored
    // twin via single steps.
    ring.clear();
    src.produce(ring, 5000);
    for (std::size_t i = 0; i < ring.size(); ++i) {
        const ExecRecord rr = resumed.step();
        expectRecordsEqual(rr, ring.at(i), "resumed", i);
    }
}

namespace
{

/** Records every event of both fast-forward tiers, in order. */
struct EventLog final : Emulator::FfSink
{
    struct Event
    {
        enum class Kind { Line, Mem, Branch, Compare, Call, Ret };
        Kind kind;
        Addr addr = 0;
        bool flag = false;
        const isa::Instruction *ins = nullptr;
        bool p1w = false, p1v = false, p2w = false, p2v = false;
    };

    void
    instLine(Addr pc) override
    {
        events.push_back({Event::Kind::Line, pc, false, nullptr,
                          false, false, false, false});
    }

    void
    memAccess(Addr addr, bool is_store) override
    {
        events.push_back({Event::Kind::Mem, addr, is_store, nullptr,
                          false, false, false, false});
    }

    void
    condBranch(const isa::Instruction *ins, Addr pc, bool taken) override
    {
        events.push_back({Event::Kind::Branch, pc, taken, ins,
                          false, false, false, false});
    }

    void
    compare(const isa::Instruction *ins, Addr pc, bool pd1_written,
            bool pd1_val, bool pd2_written, bool pd2_val) override
    {
        events.push_back({Event::Kind::Compare, pc, false, ins,
                          pd1_written, pd1_val, pd2_written, pd2_val});
    }

    void
    takenCall(Addr ret_addr) override
    {
        events.push_back({Event::Kind::Call, ret_addr, false, nullptr,
                          false, false, false, false});
    }

    void
    takenRet() override
    {
        events.push_back({Event::Kind::Ret, 0, false, nullptr,
                          false, false, false, false});
    }

    std::vector<Event> events;
};

} // namespace

/**
 * The warm fast-forward tier's event stream carries exactly the
 * information the legacy record-driven warming consumed: I-line
 * crossings, executed memory accesses, every conditional branch with
 * its outcome, every compare with its write-back, and taken
 * calls/returns — in program order.
 */
TEST(DecodedFastForward, WarmEventStreamMatchesRecordStream)
{
    constexpr std::uint64_t kN = 20000;
    constexpr unsigned kLineShift = 6; // 64-byte lines

    const sim::ProgramRef binary = gzipBinary();
    Emulator warm(*binary, 3);
    Emulator ref(*binary, 3);

    EventLog log;
    Addr line_state = ~0ull;
    warm.warmForward(kN, log, kLineShift, line_state);

    // Reference event stream from legacy records.
    std::vector<EventLog::Event> want;
    Addr ref_line = ~0ull;
    for (std::uint64_t i = 0; i < kN; ++i) {
        const ExecRecord rec = ref.stepLegacy();
        using K = EventLog::Event::Kind;
        const Addr line = rec.pc >> kLineShift;
        if (line != ref_line) {
            ref_line = line;
            want.push_back({K::Line, rec.pc, false, nullptr,
                            false, false, false, false});
        }
        if ((rec.ins->isLoad() || rec.ins->isStore()) && rec.qpVal) {
            want.push_back({K::Mem, rec.memAddr, rec.ins->isStore(),
                            nullptr, false, false, false, false});
        }
        if (rec.ins->isConditionalBranch()) {
            want.push_back({K::Branch, rec.pc, rec.branchTaken, rec.ins,
                            false, false, false, false});
        }
        if (rec.ins->isCompare()) {
            want.push_back({K::Compare, rec.pc, false, rec.ins,
                            rec.pd1Written, rec.pd1Val, rec.pd2Written,
                            rec.pd2Val});
        }
        if (rec.branchTaken) {
            if (rec.ins->op == isa::Opcode::BrCall) {
                want.push_back({K::Call, rec.pc + isa::instBytes, false,
                                nullptr, false, false, false, false});
            } else if (rec.ins->op == isa::Opcode::BrRet) {
                want.push_back({K::Ret, 0, false, nullptr,
                                false, false, false, false});
            }
        }
    }

    ASSERT_EQ(log.events.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const auto &a = want[i];
        const auto &b = log.events[i];
        ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind))
            << "event " << i;
        ASSERT_EQ(a.addr, b.addr) << "event " << i;
        ASSERT_EQ(a.flag, b.flag) << "event " << i;
        ASSERT_EQ(a.ins, b.ins) << "event " << i;
        ASSERT_EQ(a.p1w, b.p1w) << "event " << i;
        ASSERT_EQ(a.p1v, b.p1v) << "event " << i;
        ASSERT_EQ(a.p2w, b.p2w) << "event " << i;
        ASSERT_EQ(a.p2v, b.p2v) << "event " << i;
    }
    expectStateEqual(ref, warm, "after warm fast-forward");
}

/**
 * The skip tier reports exactly the predicates written (by register
 * index, as a mask) and the taken calls/returns, and lands in the same
 * architectural state as stepping.
 */
TEST(DecodedFastForward, SkipMaskAndCallEventsMatchRecords)
{
    constexpr std::uint64_t kN = 30000;

    const sim::ProgramRef binary = gzipBinary();
    Emulator skipper(*binary, 5);
    Emulator ref(*binary, 5);

    EventLog log;
    const std::uint64_t mask = skipper.skip(kN, &log);

    std::uint64_t want_mask = 0;
    std::vector<EventLog::Event> want;
    for (std::uint64_t i = 0; i < kN; ++i) {
        const ExecRecord rec = ref.stepLegacy();
        using K = EventLog::Event::Kind;
        if (rec.pd1Written)
            want_mask |= 1ull << rec.ins->pdst1;
        if (rec.pd2Written)
            want_mask |= 1ull << rec.ins->pdst2;
        if (rec.branchTaken) {
            if (rec.ins->op == isa::Opcode::BrCall) {
                want.push_back({K::Call, rec.pc + isa::instBytes, false,
                                nullptr, false, false, false, false});
            } else if (rec.ins->op == isa::Opcode::BrRet) {
                want.push_back({K::Ret, 0, false, nullptr,
                                false, false, false, false});
            }
        }
    }

    EXPECT_EQ(mask, want_mask);
    EXPECT_NE(mask, 0u); // the workload writes predicates
    ASSERT_EQ(log.events.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(static_cast<int>(want[i].kind),
                  static_cast<int>(log.events[i].kind)) << "event " << i;
        ASSERT_EQ(want[i].addr, log.events[i].addr) << "event " << i;
    }
    expectStateEqual(ref, skipper, "after skip");
}

/** Decoded structural invariants: targets and basic-block runs. */
TEST(DecodedProgramStructure, TargetsAndRunsAreConsistent)
{
    const sim::ProgramRef binary = gzipBinary();
    const DecodedProgram decoded(*binary);
    ASSERT_EQ(decoded.size(), binary->size());
    ASSERT_EQ(decoded.source(), binary.get());

    const auto &ops = decoded.ops();
    const auto &image = binary->image();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        // Run-length contract: everything before a run's last op is
        // straight-line, and runs stay inside the image.
        ASSERT_GE(ops[i].bbLen, 1u) << "op " << i;
        ASSERT_LE(i + ops[i].bbLen, ops.size()) << "op " << i;
        if (ops[i].bbLen > 1) {
            ASSERT_FALSE(image[i].isBranch()) << "op " << i;
        }
        // Direct branches carry a decode-resolved target index.
        if (image[i].op == isa::Opcode::Br ||
            image[i].op == isa::Opcode::BrCall) {
            ASSERT_EQ(Program::addrOf(ops[i].targetIdx), image[i].target)
                << "op " << i;
        }
    }
}

/** Death contract parity: the decoded path panics like the legacy one. */
TEST(DecodedDeath, RunningOffImageAndEmptyStackPanic)
{
    program::BenchmarkProfile profile = program::profileByName("gzip");
    const sim::ProgramRef binary = sim::buildBinaryShared(profile, false);

    // Mismatched decode is rejected up front.
    const sim::ProgramRef other = sim::buildBinaryShared(profile, true);
    const DecodedProgram decoded(*other);
    EXPECT_DEATH(Emulator(*binary, &decoded, 1), "different binary");
}
