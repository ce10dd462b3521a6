#include "sampling/window_checkpoint.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "common/bytestream.hh"
#include "common/logging.hh"
#include "core/core.hh"
#include "obs/trace_event.hh"
#include "program/trace.hh"
#include "program/warm_stream.hh"

namespace pp
{
namespace sampling
{

namespace
{

constexpr ArtifactFormat kCkptSetFormat{0x31762e74706b6370ull, // "pckpt.v1"
                                        2, "checkpoint file"};

double
elapsedMs(const std::chrono::steady_clock::time_point &since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/**
 * The data segment this thread lends to each window core it runs. The
 * windows of one set differ in a few pages, so restoring the next one
 * into the last one's segment copies only those, with no zero fill.
 */
thread_local program::Emulator::Segment spareSegment;

} // namespace

// ---------------------------------------------------------------------
// pp.ckpt.v2 serialization: the artifact frame (common/bytestream.hh)
// around the payload below.
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
WindowCheckpointSet::serialize() const
{
    std::vector<std::uint8_t> payload;
    putU64(payload, regionWarmup);
    putU64(payload, regionMeasure);
    putU64(payload, policy.periodInsts);
    putU64(payload, policy.warmupInsts);
    putU64(payload, policy.measureInsts);
    putU64(payload, 1); // functional warming, always on
    putU64(payload, policy.warmingHorizon);
    putU64(payload, builderInsts);
    putU64(payload, windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const WindowCheckpoint &w = windows[i];
        putU64(payload, w.warmStart);
        putU64(payload, w.measureStart);
        putU64(payload, w.measureEnd);
        // Each window's dataMem is a sparse delta against its
        // predecessor's, the first's against zeros (the builder pass
        // only advances, so consecutive images differ by the words the
        // gap actually stored to). This is what keeps .ppckpt artifacts
        // at warm-event scale instead of one memory image per window.
        const std::vector<std::uint8_t> arch =
            w.arch.serialize(i == 0 ? nullptr : &windows[i - 1].arch);
        putU64(payload, arch.size());
        payload.insert(payload.end(), arch.begin(), arch.end());
        putU32Vec(payload, w.warmEvents);
    }
    return frameArtifact(kCkptSetFormat, payload);
}

WindowCheckpointSet
WindowCheckpointSet::deserialize(const std::vector<std::uint8_t> &bytes,
                                 const std::string &path)
{
    checkFrame(kCkptSetFormat, bytes, path);
    ByteReader r{bytes, kCkptSetFormat.name, kFrameBytes, &path};
    WindowCheckpointSet set;
    set.regionWarmup = r.u64();
    set.regionMeasure = r.u64();
    set.policy.periodInsts = r.u64();
    set.policy.warmupInsts = r.u64();
    set.policy.measureInsts = r.u64();
    // Functional warming is always on; its word keeps its place in the
    // v2 layout and must read 1.
    const std::size_t warming_at = r.at;
    if (r.u64() != 1)
        r.fail(ArtifactError::Kind::Malformed, warming_at,
               "functional-warming word other than 1");
    set.policy.warmingHorizon = r.u64();
    set.builderInsts = r.u64();
    const std::size_t n = r.length(5);
    set.windows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        WindowCheckpoint w;
        w.warmStart = r.u64();
        w.measureStart = r.u64();
        w.measureEnd = r.u64();
        // The architectural image decodes in place and must end exactly
        // where its length prefix says.
        const std::size_t arch_at = r.at;
        const std::uint64_t arch_len = r.u64();
        if (arch_len > bytes.size() - r.at)
            r.fail(ArtifactError::Kind::Truncated, arch_at, "truncated");
        const std::size_t arch_end = r.at + arch_len;
        w.arch = program::Emulator::Checkpoint::deserialize(
            r, i == 0 ? nullptr : &set.windows[i - 1].arch);
        if (r.at != arch_end)
            r.fail(ArtifactError::Kind::Malformed, arch_at,
                   "window image length does not match its contents");
        const std::size_t events_at = r.at + 8;
        w.warmEvents = r.u32Vec();
        for (std::size_t e = 0; e < w.warmEvents.size(); ++e) {
            if (!program::warmEventCanonical(w.warmEvents[e]))
                r.fail(ArtifactError::Kind::Malformed, events_at + 4 * e,
                       "warm event sets a flag its kind does not use");
        }
        set.windows.push_back(std::move(w));
    }
    r.expectEnd();
    return set;
}

void
WindowCheckpointSet::store(const std::string &path) const
{
    storeArtifact(kCkptSetFormat, path, serialize());
}

WindowCheckpointSet
WindowCheckpointSet::loadOrThrow(const std::string &path)
{
    return deserialize(readArtifact(kCkptSetFormat, path), path);
}

void
WindowCheckpointSet::validate(const program::Program &binary,
                              const program::TraceFile *trace,
                              const std::string &path) const
{
    auto mismatch = [&](std::size_t window, const std::string &detail) {
        throw ArtifactError(ArtifactError::Kind::Mismatch,
                            kCkptSetFormat.name, path, kFrameBytes,
                            "window " + std::to_string(window) + ": " +
                                detail);
    };
    auto n = [](std::size_t v) { return std::to_string(v); };
    const std::size_t words = binary.dataSize() / 8;
    const std::vector<program::ConditionSpec> &conds = binary.conditions();
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const WindowCheckpoint &w = windows[i];
        const program::Emulator::Checkpoint &a = w.arch;
        if (a.dataMem.size() != words)
            mismatch(i, "data segment of " + n(a.dataMem.size()) +
                            " words, the binary's has " + n(words));
        if (a.intRegs.size() != isa::numIntRegs ||
            a.fpRegs.size() != isa::numFpRegs ||
            a.predRegs.size() != isa::numPredRegs)
            mismatch(i, "register files of " + n(a.intRegs.size()) + "/" +
                            n(a.fpRegs.size()) + "/" +
                            n(a.predRegs.size()) +
                            " int/fp/predicate registers, the core's "
                            "have " + n(isa::numIntRegs) + "/" +
                            n(isa::numFpRegs) + "/" +
                            n(isa::numPredRegs));
        if (!program::Emulator::pcInImage(binary, a.pc))
            mismatch(i, "PC " + n(a.pc) + " outside the " +
                            n(binary.size()) +
                            "-instruction code image");
        for (const Addr ret : a.callStack)
            if (!program::Emulator::pcInImage(binary, ret))
                mismatch(i, "return address " + n(ret) + " outside the " +
                                n(binary.size()) +
                                "-instruction code image");
        if (a.conds.numConds != conds.size())
            mismatch(i, n(a.conds.numConds) +
                            " conditions, the binary has " +
                            n(conds.size()));
        if (a.conds.replay != (trace != nullptr))
            mismatch(i, a.conds.replay
                            ? "condition state of a replayed trace, the "
                              "workload generates its conditions"
                            : "generated condition state, the workload "
                              "replays a trace");
        for (std::size_t k = 0; k < a.conds.ids.size(); ++k) {
            const program::CondId id = a.conds.ids[k];
            const std::uint32_t pos = a.conds.pos[k];
            const bool fits = trace != nullptr
                ? id < trace->streams().size() &&
                    program::cursorFits(trace->streams()[id], pos)
                : id < conds.size() && program::cursorFits(conds[id], pos);
            if (!fits)
                mismatch(i, "condition " + n(id) + " cursor " + n(pos) +
                                " out of range");
        }
        for (std::size_t e = 0; e < w.warmEvents.size(); ++e) {
            const program::WarmEvent ev =
                program::unpackWarmEvent(w.warmEvents[e]);
            const bool names_inst =
                ev.kind == program::WarmEventKind::Branch ||
                ev.kind == program::WarmEventKind::Compare;
            if (names_inst && ev.payload >= binary.size())
                mismatch(i, "warm event " + n(e) + " names instruction " +
                                n(ev.payload) + " of a " +
                                n(binary.size()) + "-instruction binary");
        }
    }
}

// ---------------------------------------------------------------------
// Build / run / merge
// ---------------------------------------------------------------------

WindowCheckpointSet
buildWindowCheckpoints(const program::Program &binary,
                       const program::BenchmarkProfile &profile,
                       std::uint64_t warmup_insts,
                       std::uint64_t measure_insts,
                       const SamplingPolicy &policy,
                       const program::DecodedProgram *decoded,
                       const program::TraceFile *trace)
{
    panicIfNot(checkpointEligible(policy),
               "window checkpoints need a gapped sampling policy");
    panicIfNot(measure_insts > 0, "sampled run with empty region");
    program::checkWarmStreamFits(binary.size(), binary.dataSize() / 8);
    obs::ScopedSpan span(obs::tracer(), "ckpt_build", "sampling",
                         profile.name);

    WindowCheckpointSet set;
    set.regionWarmup = warmup_insts;
    set.regionMeasure = measure_insts;
    set.policy = policy;

    program::Emulator emu(binary, decoded, sim::coreSeed(profile),
                          trace);
    const std::uint64_t region_start = warmup_insts;
    const std::uint64_t region_end = warmup_insts + measure_insts;

    // One monotonic functional pass: with a gapped policy, consecutive
    // warm starts strictly increase, so the emulator never rewinds.
    std::uint64_t pos = 0;
    for (std::uint64_t s = region_start; s < region_end;
         s += policy.periodInsts) {
        WindowCheckpoint w;
        w.measureStart = s;
        w.measureEnd =
            s + std::min<std::uint64_t>(policy.measureInsts,
                                        region_end - s);
        w.warmStart = s > policy.warmupInsts ? s - policy.warmupInsts : 0;

        // Functional warming covers [warm_begin, warmStart): the last
        // warmingHorizon instructions of the gap (the whole gap when
        // the horizon is 0), recorded rather than applied.
        const std::uint64_t h = policy.warmingHorizon;
        const std::uint64_t warm_begin = std::max<std::uint64_t>(
            h != 0 && w.warmStart > h ? w.warmStart - h : 0, pos);
        if (warm_begin > pos)
            emu.skip(warm_begin - pos);
        if (w.warmStart > warm_begin) {
            program::WarmStreamRecorder rec(w.warmEvents);
            Addr line = ~0ull;
            emu.warmForward(w.warmStart - warm_begin, rec,
                            program::kWarmLineShift, line);
        }
        // Pages the gap did not store to stay shared with the previous
        // window, so a set holds each distinct page once.
        w.arch = emu.checkpoint();
        pos = w.warmStart;
        set.windows.push_back(std::move(w));
    }
    set.builderInsts = pos;
    return set;
}

WindowRunResult
runWindow(const WindowCheckpoint &w, const program::Program &binary,
          const core::CoreConfig &cfg, std::uint64_t seed,
          const program::DecodedProgram *decoded,
          const program::TraceFile *trace)
{
    WindowRunResult out;

    const auto warm_start = std::chrono::steady_clock::now();
    core::OoOCore cpu(binary, cfg, seed, w.arch, decoded, trace,
                      std::move(spareSegment));
    {
        obs::ScopedSpan span(obs::tracer(), "warm_replay", "sampling");
        cpu.warmReplay(w.warmEvents);
    }
    out.warmHostMs = elapsedMs(warm_start);

    const auto win_start = std::chrono::steady_clock::now();
    {
        obs::ScopedSpan span(obs::tracer(), "detailed_window",
                             "sampling");
        cpu.run(w.measureStart - w.warmStart);
        const core::CoreStats at_warm = cpu.coreStats();
        if (w.warmStart + at_warm.committedInsts >= w.measureEnd) {
            out.overshot = true; // warmup overshot the window entirely
        } else {
            cpu.run(w.measureEnd - w.warmStart);
            out.delta = sim::statsDelta(at_warm, cpu.coreStats());
        }
    }
    out.coreCommitted = cpu.coreStats().committedInsts;
    spareSegment = std::move(cpu).releaseSegment();
    out.windowHostMs = elapsedMs(win_start);
    return out;
}

SampledRun
mergeWindowRuns(const WindowCheckpointSet &set,
                const std::vector<WindowRunResult> &runs,
                const std::string &benchmark,
                std::uint64_t measure_insts)
{
    panicIfNot(runs.size() == set.windows.size(),
               "window-run count does not match the checkpoint set");

    WindowTally tally;
    std::uint64_t detailed = 0;
    double warm_ms = 0.0;
    double window_ms = 0.0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const WindowRunResult &wr = runs[i];
        detailed += wr.coreCommitted;
        warm_ms += wr.warmHostMs;
        window_ms += wr.windowHostMs;
        if (!wr.overshot)
            tally.add(set.windows[i].measureStart, wr.delta);
    }

    // A gapped policy can never tile the region, so the only exact case
    // is the degenerate single window spanning it (then bit-identical
    // to full simulation); everything else extrapolates per measured
    // instruction, exactly as the serial tail does.
    const bool single_full = tally.samples.size() == 1 &&
        set.policy.measureInsts >= measure_insts;
    SampledRun out =
        tally.finish(benchmark, measure_insts, detailed, single_full);
    out.fastForwardInsts = set.builderInsts;
    out.result.ffHostMs = warm_ms;
    out.result.windowHostMs = window_ms;
    out.result.hostMs = warm_ms + window_ms;
    return out;
}

SampledRun
sampledRunCheckpointed(const program::Program &binary,
                       const program::BenchmarkProfile &profile,
                       const sim::SchemeConfig &scheme,
                       const core::CoreConfig &base_cfg,
                       std::uint64_t warmup_insts,
                       std::uint64_t measure_insts,
                       const SamplingPolicy &policy,
                       const program::DecodedProgram *decoded,
                       const program::TraceFile *trace)
{
    const auto host_start = std::chrono::steady_clock::now();
    const WindowCheckpointSet set = buildWindowCheckpoints(
        binary, profile, warmup_insts, measure_insts, policy, decoded,
        trace);
    const double build_ms = elapsedMs(host_start);

    const core::CoreConfig cfg = sim::resolveConfig(scheme, base_cfg);
    const std::uint64_t seed = sim::coreSeed(profile);
    std::vector<WindowRunResult> runs;
    runs.reserve(set.windows.size());
    for (const WindowCheckpoint &w : set.windows)
        runs.push_back(runWindow(w, binary, cfg, seed, decoded, trace));

    SampledRun out =
        mergeWindowRuns(set, runs, profile.name, measure_insts);
    out.result.ffHostMs += build_ms;
    out.result.hostMs = elapsedMs(host_start);
    return out;
}

} // namespace sampling
} // namespace pp
