#include "sim/simulator.hh"

#include <chrono>
#include <cstdlib>

#include "core/core.hh"
#include "obs/trace_event.hh"
#include "program/codegen.hh"

namespace pp
{
namespace sim
{

program::Program
buildBinary(const program::BenchmarkProfile &profile, bool if_convert,
            program::IfConvertStats *ifc_stats)
{
    program::CodeGenerator gen(profile);
    program::AsmProgram asm_prog = gen.generate();
    if (!if_convert) {
        return asm_prog.assemble(profile.dataBytes,
                                 profile.name);
    }
    program::IfConvertOptions opts;
    opts.mispredThreshold = profile.ifcMispredThreshold;
    opts.maxBlockLen = profile.ifcMaxBlockLen;
    opts.profileSeed = profile.seed ^ 0x5eedf00dull;
    program::AsmProgram converted =
        program::ifConvert(asm_prog, opts, ifc_stats);
    return converted.assemble(profile.dataBytes, profile.name + ".ifc");
}

core::CoreStats
statsDelta(const core::CoreStats &a, const core::CoreStats &b)
{
    core::CoreStats d;
    for (const auto &f : core::kCoreStatsFields)
        d.*f.member = b.*f.member - a.*f.member;
    return d;
}

ProgramRef
buildBinaryShared(const program::BenchmarkProfile &profile, bool if_convert)
{
    return std::make_shared<const program::Program>(
        buildBinary(profile, if_convert));
}

DecodedRef
decodeShared(const ProgramRef &binary)
{
    return std::make_shared<const program::DecodedProgram>(*binary);
}

RunResult
run(const program::Program &binary,
    const program::BenchmarkProfile &profile, const SchemeConfig &scheme,
    std::uint64_t warmup_insts, std::uint64_t measure_insts)
{
    return run(binary, profile, scheme, core::CoreConfig{}, warmup_insts,
               measure_insts);
}

core::CoreConfig
resolveConfig(const SchemeConfig &scheme, const core::CoreConfig &base_cfg)
{
    core::CoreConfig cfg = base_cfg;
    cfg.scheme = scheme.scheme;
    cfg.predication = scheme.predication;
    cfg.idealNoAlias = scheme.idealNoAlias;
    cfg.idealPerfectHistory = scheme.idealPerfectHistory;
    cfg.shadowConventional = scheme.shadowConventional;
    if (scheme.splitPvt)
        cfg.predicate.pvtMode = predictor::PvtMode::Split;
    if (scheme.confidenceBits != 0)
        cfg.predicate.confidenceBits = scheme.confidenceBits;
    return cfg;
}

RunResult
run(const program::Program &binary,
    const program::BenchmarkProfile &profile, const SchemeConfig &scheme,
    const core::CoreConfig &base_cfg, std::uint64_t warmup_insts,
    std::uint64_t measure_insts, const program::DecodedProgram *decoded,
    const program::TraceFile *trace)
{
    const core::CoreConfig cfg = resolveConfig(scheme, base_cfg);

    const auto host_start = std::chrono::steady_clock::now();
    core::OoOCore cpu(binary, cfg, coreSeed(profile), decoded, trace);
    core::CoreStats window;
    {
        obs::ScopedSpan span(obs::tracer(), "detailed_window", "sim",
                             profile.name);
        cpu.run(warmup_insts);
        const core::CoreStats at_warmup = cpu.coreStats();
        cpu.run(warmup_insts + measure_insts);
        window = statsDelta(at_warmup, cpu.coreStats());
    }
    const auto host_end = std::chrono::steady_clock::now();

    RunResult r;
    r.hostMs = std::chrono::duration<double, std::milli>(
        host_end - host_start).count();
    // The whole full run is one detailed window (warmup + measurement);
    // ffHostMs stays 0 and buildHostMs is assigned by the driver.
    r.windowHostMs = r.hostMs;
    r.benchmark = profile.name;
    r.stats = window;
    r.detailedInsts = cpu.coreStats().committedInsts;
    r.mispredRatePct = window.mispredRatePct();
    r.accuracyPct = 100.0 - r.mispredRatePct;
    r.ipc = window.ipc();
    r.shadowMispredRatePct = window.shadowMispredRatePct();
    r.earlyResolvedPct = window.earlyResolvedPct();
    return r;
}

std::string
Workload::binaryKey() const
{
    return ifConvert ? profile.name + "+ifc" : profile.name;
}

std::string
Workload::buildKey() const
{
    return tracePath.empty() ? binaryKey() : "trace:" + tracePath;
}

RunResult
buildAndRun(const program::BenchmarkProfile &profile, bool if_convert,
            const SchemeConfig &scheme, std::uint64_t warmup_insts,
            std::uint64_t measure_insts)
{
    const program::Program binary = buildBinary(profile, if_convert);
    return run(binary, profile, scheme, warmup_insts, measure_insts);
}

namespace
{

std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    return std::strtoull(v, nullptr, 10);
}

} // namespace

std::uint64_t
defaultInstructions()
{
    return envOr("REPRO_INSTRUCTIONS", 1000000);
}

std::uint64_t
defaultWarmup()
{
    return envOr("REPRO_WARMUP", 150000);
}

} // namespace sim
} // namespace pp
