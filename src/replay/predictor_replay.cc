#include "replay/predictor_replay.hh"

#include <regex>

#include "common/logging.hh"
#include "program/emulator.hh"
#include "program/warm_stream.hh"

namespace pp
{
namespace replay
{

namespace
{

/**
 * warmForward() sink recording only the Branch/Compare events of the
 * warm stream — the kinds predictor tables consume — through
 * program::WarmStreamRecorder. Plain struct with the FfSink method set
 * (not derived) so the templated warm tier inlines the recording into
 * the decoded hot loop.
 */
struct PredictorStreamRecorder
{
    explicit PredictorStreamRecorder(std::vector<std::uint32_t> &out)
        : rec(out)
    {
    }

    void instLine(Addr pc) { (void)pc; }
    void memAccess(Addr addr, bool is_store) { (void)addr; (void)is_store; }

    void
    condBranch(const isa::Instruction *ins, Addr pc, bool taken)
    {
        rec.condBranch(ins, pc, taken);
        ++branches;
    }

    void
    compare(const isa::Instruction *ins, Addr pc, bool pd1_written,
            bool pd1_val, bool pd2_written, bool pd2_val)
    {
        rec.compare(ins, pc, pd1_written, pd1_val, pd2_written, pd2_val);
        ++compares;
    }

    /** The replay tier models no return-address stack. */
    void takenCall(Addr ret_addr) { (void)ret_addr; }
    void takenRet() {}

    program::WarmStreamRecorder rec;
    std::uint64_t branches = 0;
    std::uint64_t compares = 0;
};

std::regex
compileRegex(const std::string &pattern)
{
    try {
        return std::regex(pattern);
    } catch (const std::regex_error &e) {
        fatal("invalid filter regex '" + pattern + "': " + e.what());
    }
}

} // namespace

std::uint64_t
ReplayStream::events() const
{
    return warmupEvents.size() + measureEvents.size();
}

ReplayStream
extractStream(const program::Program &binary,
              const program::BenchmarkProfile &profile,
              std::uint64_t warmup_insts, std::uint64_t measure_insts,
              const program::DecodedProgram *decoded,
              const program::TraceFile *trace)
{
    program::checkWarmStreamFits(binary.size(), binary.dataSize() / 8);
    ReplayStream s;
    s.warmupInsts = warmup_insts;
    s.measureInsts = measure_insts;

    // Same seed as the detailed core's oracle, so the committed stream
    // here IS the committed stream a full run of this workload sees.
    program::Emulator emu(binary, decoded, sim::coreSeed(profile), trace);

    Addr line_state = ~0ull;
    {
        PredictorStreamRecorder sink(s.warmupEvents);
        emu.warmForward(warmup_insts, sink, program::kWarmLineShift,
                        line_state);
    }
    {
        PredictorStreamRecorder sink(s.measureEvents);
        emu.warmForward(measure_insts, sink, program::kWarmLineShift,
                        line_state);
        s.measureBranches = sink.branches;
        s.measureCompares = sink.compares;
    }
    return s;
}

// ---------------------------------------------------------------------
// ReplayCell
// ---------------------------------------------------------------------

ReplayCell::ReplayCell(const ReplayConfig &rc)
    : name_(rc.name), bpu_(sim::resolveConfig(rc.scheme, rc.config)),
      predPred_(isa::numPredRegs, 0), predValid_(isa::numPredRegs, 0)
{
}

void
ReplayCell::branch(const isa::Instruction *ins, Addr pc, bool taken,
                   bool qp_arch, bool counting)
{
    const core::Bpu::BranchTraining p =
        bpu_.trainBranch(*ins, pc, qp_arch, taken);

    // The configuration's final direction: the overriding second level
    // for the Conventional/PepPa schemes; the predicted value of the
    // guarding predicate for the predicate-predictor scheme. Replay
    // models no early resolution (there is no execution timing to
    // resolve against) — that divergence from the detailed core is
    // deliberate and documented in docs/replay_format.md.
    bool final_pred = p.l2;
    if (bpu_.predicate) {
        // A branch whose predicate was never predicted (produced before
        // the stream started) reads the committed value — which is the
        // branch outcome itself, i.e. the cold case predicts correctly,
        // exactly as an early-resolved branch would.
        final_pred =
            predValid_[ins->qp] != 0 ? predPred_[ins->qp] != 0 : taken;
    }

    if (!counting)
        return;
    ++stats_.condBranches;
    const bool miss = final_pred != taken;
    if (miss) {
        ++stats_.mispredicted;
        if (taken)
            ++stats_.mispredTaken;
        else
            ++stats_.mispredNotTaken;
    }
    if (p.l1 != taken)
        ++stats_.l1Mispredicted;
    if (bpu_.shadow && p.shadow != taken)
        ++stats_.shadowMispredicts;
    switch (ins->op) {
      case isa::Opcode::BrCall:
        ++stats_.callBranches;
        stats_.callMispredicted += miss ? 1 : 0;
        break;
      case isa::Opcode::BrRet:
        ++stats_.retBranches;
        stats_.retMispredicted += miss ? 1 : 0;
        break;
      default:
        ++stats_.brBranches;
        stats_.brMispredicted += miss ? 1 : 0;
        break;
    }
}

void
ReplayCell::compare(const isa::Instruction *ins, Addr pc, bool v1,
                    bool v2, bool pd1_val, bool pd2_val, bool counting)
{
    if (bpu_.predicate == nullptr)
        return; // compares only touch predicate-predictor tables

    const predictor::PredPredState pst =
        bpu_.trainCompare(*ins, pc, v1, v2, pd1_val, pd2_val);
    const bool need_second =
        ins->pdst2 != isa::regP0 && ins->pdst2 != invalidReg;

    // The cell's view of each predicate register: the value its own
    // predictor last produced for it (what rename would read from a
    // still-speculative PPRF entry).
    if (pst.valid) {
        if (ins->pdst1 != isa::regP0 && ins->pdst1 != invalidReg) {
            predPred_[ins->pdst1] = pst.pred1 ? 1 : 0;
            predValid_[ins->pdst1] = 1;
        }
        if (need_second) {
            predPred_[ins->pdst2] = pst.pred2 ? 1 : 0;
            predValid_[ins->pdst2] = 1;
        }
    }

    if (!counting)
        return;
    ++stats_.compares;
    if (pst.valid && pst.pred1 != v1)
        ++stats_.pd1Mispredicts;
    if (pst.valid && need_second && pst.pred2 != v2)
        ++stats_.pd2Mispredicts;
    if (pst.valid && pst.conf1) {
        ++stats_.confidentPd1;
        if (pst.pred1 != v1)
            ++stats_.confidentPd1Wrong;
    }
}

std::uint64_t
ReplayCell::storageBytes() const
{
    // Modeled predictor storage: first level plus the scheme's second
    // level. The shadow predictor is instrumentation, not a design
    // point, and is deliberately excluded.
    std::uint64_t bytes = bpu_.l1->storageBytes();
    if (bpu_.l2)
        bytes += bpu_.l2->storageBytes();
    if (bpu_.predicate)
        bytes += bpu_.predicate->storageBytes();
    return bytes;
}

// ---------------------------------------------------------------------
// PredictorReplay
// ---------------------------------------------------------------------

PredictorReplay::PredictorReplay(const program::Program &binary,
                                 const ReplayStream &stream)
    : binary_(binary), stream_(stream), archPred_(isa::numPredRegs, 0),
      stalePred_(isa::numPredRegs, 0)
{
    // Fetch-to-commit distance of the predicate file, in stream events:
    // one default ROB's worth of instructions at this stream's measured
    // branch/compare density. Config-independent (replay configs vary
    // predictor geometry, not the machine), so cells stay batchable.
    const std::uint64_t insts = stream.warmupInsts + stream.measureInsts;
    const std::uint64_t density_lag = insts == 0 ? 0
        : (static_cast<std::uint64_t>(core::CoreConfig{}.robEntries) *
           stream.events()) / insts;
    lagEvents_ = density_lag == 0 ? 1 : density_lag;
}

void
PredictorReplay::walk(const std::vector<std::uint32_t> &events,
                      std::vector<ReplayCell> &cells, bool counting)
{
    const isa::Instruction *image = binary_.image().data();
    for (const std::uint32_t word : events) {
        // Land the predicate writes whose commit→fetch window expired.
        while (!pending_.empty() && pending_.front().applyAt <= eventIdx_) {
            stalePred_[pending_.front().reg] = pending_.front().val;
            pending_.pop_front();
        }
        ++eventIdx_;
        const program::WarmEvent ev = program::unpackWarmEvent(word);
        const std::uint32_t flags = ev.flags;
        const Addr addr = ev.addr();
        const isa::Instruction *ins = &image[ev.payload];
        switch (ev.kind) {
          case program::WarmEventKind::Branch: {
            const bool taken = (flags & 1) != 0;
            // Config-independent shared state: the fetch-time (stale)
            // value of the guarding predicate — PEP-PA's selector. The
            // committed value would equal the outcome itself (see the
            // stalePred_ comment in the header), read once per event.
            const bool qp_arch = stalePred_[ins->qp] != 0;
            for (ReplayCell &cell : cells)
                cell.branch(ins, addr, taken, qp_arch, counting);
            break;
          }
          case program::WarmEventKind::Compare: {
            const bool pd1w = (flags & program::kWarmPd1Written) != 0;
            const bool pd1v = (flags & program::kWarmPd1Val) != 0;
            const bool pd2w = (flags & program::kWarmPd2Written) != 0;
            const bool pd2v = (flags & program::kWarmPd2Val) != 0;
            // completeCompare's rule, evaluated once for all cells: the
            // written value, else what the register held before.
            auto arch_val = [&](RegIndex l, bool written, bool val) {
                if (written)
                    return val;
                return l != isa::regP0 && l != invalidReg
                    ? archPred_[l] != 0 : false;
            };
            const bool v1 = arch_val(ins->pdst1, pd1w, pd1v);
            const bool v2 = arch_val(ins->pdst2, pd2w, pd2v);
            for (ReplayCell &cell : cells)
                cell.compare(ins, addr, v1, v2, pd1v, pd2v, counting);
            // Commit the architectural writes after every cell saw the
            // pre-compare state (OoOCore::warmCompare syncs in the same
            // order).
            // Fetch-time visibility is delayed by one ROB window.
            auto sync_pred = [&](RegIndex l, bool written, bool val) {
                if (!written || l == isa::regP0 || l == invalidReg)
                    return;
                archPred_[l] = val ? 1 : 0;
                pending_.push_back(PendingWrite{eventIdx_ + lagEvents_, l,
                                                static_cast<std::uint8_t>(
                                                    val ? 1 : 0)});
            };
            sync_pred(ins->pdst1, pd1w, pd1v);
            sync_pred(ins->pdst2, pd2w, pd2v);
            break;
          }
          default:
            panic("malformed replay event stream (unexpected kind)");
        }
    }
}

void
PredictorReplay::run(std::vector<ReplayCell> &cells)
{
    walk(stream_.warmupEvents, cells, /*counting=*/false);
    walk(stream_.measureEvents, cells, /*counting=*/true);
}

// ---------------------------------------------------------------------
// ReplayMatrix
// ---------------------------------------------------------------------

ReplayMatrix::ReplayMatrix()
    : warmup_(sim::defaultWarmup()), measure_(sim::defaultInstructions())
{
}

ReplayMatrix &
ReplayMatrix::benchmarks(std::vector<program::BenchmarkProfile> suite)
{
    benchmarks_ = std::move(suite);
    return *this;
}

ReplayMatrix &
ReplayMatrix::addBenchmark(program::BenchmarkProfile profile)
{
    benchmarks_.push_back(std::move(profile));
    return *this;
}

ReplayMatrix &
ReplayMatrix::ifConvert(bool on)
{
    ifConvert_ = on;
    return *this;
}

ReplayMatrix &
ReplayMatrix::window(std::uint64_t warmup_insts,
                     std::uint64_t measure_insts)
{
    warmup_ = warmup_insts;
    measure_ = measure_insts;
    return *this;
}

ReplayMatrix &
ReplayMatrix::addConfig(std::string name, sim::SchemeConfig scheme,
                        core::CoreConfig config)
{
    configs_.push_back(ReplayConfig{std::move(name), scheme, config});
    return *this;
}

ReplayMatrix &
ReplayMatrix::filterBenchmarks(const std::string &regex)
{
    benchmarkFilter_ = regex;
    return *this;
}

std::vector<ReplayWorkloadSpec>
ReplayMatrix::workloads() const
{
    std::vector<program::BenchmarkProfile> suite = benchmarks_;
    if (!benchmarkFilter_.empty()) {
        const std::regex re = compileRegex(benchmarkFilter_);
        std::vector<program::BenchmarkProfile> kept;
        for (const auto &p : suite)
            if (std::regex_search(p.name, re))
                kept.push_back(p);
        suite = std::move(kept);
    }
    std::vector<ReplayWorkloadSpec> out;
    for (const auto &p : suite) {
        ReplayWorkloadSpec w;
        w.profile = p;
        w.ifConvert = ifConvert_;
        w.warmupInsts = warmup_;
        w.measureInsts = measure_;
        out.push_back(std::move(w));
    }
    return out;
}

} // namespace replay
} // namespace pp
