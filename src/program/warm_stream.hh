/**
 * @file
 * Recorded functional-warming event stream.
 *
 * The warmForward() tier streams cache/predictor-relevant events into a
 * sink as it executes; this header gives that stream a serializable
 * form. A WarmStreamRecorder packs each event into one 32-bit word, so
 * a window checkpoint (sampling/window_checkpoint.hh) can carry the
 * warming horizon's events and any core can later replay them through
 * its *own* tables (core::OoOCore::warmReplay) — the recording is
 * scheme-agnostic: it holds committed program behavior, not table
 * state.
 *
 * Encoding (packWarmEvent): kind in bits 0-1, flags in bits 2-5 and a
 * 26-bit payload in bits 6-31 — the instruction index (pc /
 * isa::instBytes) for InstLine, Branch and Compare, the data word index
 * (address / 8) for Mem. A program that checkWarmStreamFits() accepts
 * has every address rebuild exactly. Taken calls/returns are
 * deliberately NOT recorded: the window core seeds its return-address
 * stack from the checkpoint's architectural call stack instead (see
 * the OoOCore resume constructor).
 */

#ifndef PP_PROGRAM_WARM_STREAM_HH
#define PP_PROGRAM_WARM_STREAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace pp
{
namespace program
{

/** What one recorded warming event describes. */
enum class WarmEventKind : std::uint8_t
{
    InstLine = 0, ///< fetch crossed into a new I-cache line
    Mem = 1,      ///< executed load/store (flag bit 0: is_store)
    Branch = 2,   ///< conditional branch (flag bit 0: taken)
    Compare = 3,  ///< compare (flags: pd1_written/pd1_val/pd2_written/pd2_val)
};

/** Compare-event flag bits. */
constexpr std::uint32_t kWarmPd1Written = 1u << 0;
constexpr std::uint32_t kWarmPd1Val = 1u << 1;
constexpr std::uint32_t kWarmPd2Written = 1u << 2;
constexpr std::uint32_t kWarmPd2Val = 1u << 3;

/**
 * The flag bits each kind may set, indexed by kind. A decoder rejects
 * any other, so a stream it accepts re-encodes to the same bytes.
 */
inline constexpr std::uint32_t kWarmFlagMask[] = {0x0, 0x1, 0x1, 0xf};

constexpr unsigned kWarmFlagShift = 2;
constexpr unsigned kWarmPayloadShift = 6;

/**
 * One past the largest payload: the most instructions a code image and
 * the most 8-byte words a data segment may hold for a warm stream.
 */
constexpr std::uint64_t kWarmIndexLimit = 1ull << 26;

/** Bytes one payload unit stands for: a data word or an instruction. */
constexpr Addr
warmUnitBytes(WarmEventKind kind)
{
    return kind == WarmEventKind::Mem ? 8 : isa::instBytes;
}

/** One event as a word; @p addr is a multiple of its kind's unit. */
constexpr std::uint32_t
packWarmEvent(WarmEventKind kind, std::uint32_t flags, Addr addr)
{
    return static_cast<std::uint32_t>(kind) | flags << kWarmFlagShift |
        static_cast<std::uint32_t>(addr / warmUnitBytes(kind))
            << kWarmPayloadShift;
}

/** A packed event taken apart. */
struct WarmEvent
{
    WarmEventKind kind;
    std::uint32_t flags;
    std::uint32_t payload; ///< instruction index; data word index for Mem

    /** The fetch PC or effective data address the event names. */
    constexpr Addr
    addr() const
    {
        return Addr{payload} * warmUnitBytes(kind);
    }
};

constexpr WarmEvent
unpackWarmEvent(std::uint32_t word)
{
    return {static_cast<WarmEventKind>(word & 0x3),
            (word >> kWarmFlagShift) & 0xf, word >> kWarmPayloadShift};
}

/** True when @p word sets no flag bit its kind leaves unused. */
constexpr bool
warmEventCanonical(std::uint32_t word)
{
    return ((word >> kWarmFlagShift) & ~kWarmFlagMask[word & 0x3] & 0xf) ==
        0;
}

/**
 * Fatal unless a program of @p code_insts instructions and
 * @p data_words data words keeps every payload below kWarmIndexLimit.
 * Checked once per program before its warm stream is recorded.
 */
inline void
checkWarmStreamFits(std::uint64_t code_insts, std::uint64_t data_words)
{
    if (code_insts > kWarmIndexLimit || data_words > kWarmIndexLimit)
        fatal("program of " + std::to_string(code_insts) +
              " instructions and " + std::to_string(data_words) +
              " data words exceeds the warm-event limit of 2^26 "
              "instructions and 2^26 data words");
}

/**
 * I-line granularity the stream is recorded at: the default 64-byte
 * line (CacheParams::blockBytes). Cores configured with another line
 * size still replay the stream correctly — the recorded line-crossing
 * points are merely approximate for them (warming accuracy, never
 * correctness, and identically so in serial and parallel execution).
 */
constexpr unsigned kWarmLineShift = 6;

/**
 * warmForward() sink that records the event stream instead of applying
 * it. Plain struct with FfSink's method set (not derived): the
 * templated warm tier binds it statically, so recording inlines into
 * the decoded hot loop.
 */
struct WarmStreamRecorder
{
    explicit WarmStreamRecorder(std::vector<std::uint32_t> &out)
        : events(out)
    {
    }

    void
    instLine(Addr pc)
    {
        append(WarmEventKind::InstLine, 0, pc);
    }

    void
    memAccess(Addr addr, bool is_store)
    {
        append(WarmEventKind::Mem, is_store ? 1 : 0, addr);
    }

    void
    condBranch(const isa::Instruction *ins, Addr pc, bool taken)
    {
        (void)ins; // replay re-derives it from the image at pc
        append(WarmEventKind::Branch, taken ? 1 : 0, pc);
    }

    void
    compare(const isa::Instruction *ins, Addr pc, bool pd1_written,
            bool pd1_val, bool pd2_written, bool pd2_val)
    {
        (void)ins;
        std::uint32_t flags = 0;
        if (pd1_written)
            flags |= kWarmPd1Written;
        if (pd1_val)
            flags |= kWarmPd1Val;
        if (pd2_written)
            flags |= kWarmPd2Written;
        if (pd2_val)
            flags |= kWarmPd2Val;
        append(WarmEventKind::Compare, flags, pc);
    }

    /** RAS state comes from the checkpoint's call stack, not events. */
    void takenCall(Addr ret_addr) { (void)ret_addr; }
    void takenRet() {}

    std::vector<std::uint32_t> &events;

  private:
    void
    append(WarmEventKind kind, std::uint32_t flags, Addr addr)
    {
        events.push_back(packWarmEvent(kind, flags, addr));
    }
};

} // namespace program
} // namespace pp

#endif // PP_PROGRAM_WARM_STREAM_HH
