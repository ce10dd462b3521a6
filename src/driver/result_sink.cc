#include "driver/result_sink.hh"

#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>

#include "common/atomic_io.hh"
#include "common/logging.hh"
#include "core/corestats.hh"

namespace pp
{
namespace driver
{

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

namespace
{

void
checkAligned(const std::vector<RunSpec> &specs,
             const std::vector<sim::RunResult> &results)
{
    if (specs.size() != results.size())
        panic("result sink: specs/results size mismatch");
}

} // namespace

void
withOutputStream(const std::string &path,
                 const std::function<void(std::ostream &)> &emit)
{
    if (path == "-") {
        emit(std::cout);
        std::cout.flush();
        if (!std::cout)
            fatal("error writing results to stdout");
        return;
    }
    // Buffer the whole document and land it atomically: a sink that a
    // crash (or a supervisor's SIGKILL) interrupts must never leave a
    // torn file under the advertised name.
    std::ostringstream os;
    emit(os);
    if (!os)
        fatal("error serializing result document for " + path);
    std::string error;
    if (!writeFileAtomic(path, os.str(), &error))
        fatal("error writing result file: " + error);
}

std::string
ResultSink::toString(const std::vector<RunSpec> &specs,
                     const std::vector<sim::RunResult> &results) const
{
    std::ostringstream os;
    write(os, specs, results);
    return os.str();
}

void
ResultSink::writeFile(const std::string &path,
                      const std::vector<RunSpec> &specs,
                      const std::vector<sim::RunResult> &results) const
{
    withOutputStream(path, [&](std::ostream &os) {
        write(os, specs, results);
    });
}

void
writeRunJson(JsonWriter &w, const RunSpec &s, const sim::RunResult &r)
{
    w.beginObject();
    w.field("benchmark", s.profile.name);
    w.field("suite", s.profile.isFp ? "fp" : "int");
    w.field("if_converted", s.ifConvert);
    w.field("scheme", s.schemeName);
    w.field("config", s.configName);
    w.field("seed", s.profile.seed);
    w.field("warmup_insts", s.warmupInsts);
    w.field("measure_insts", s.measureInsts);
    w.field("ipc", r.ipc);
    w.field("mispred_pct", r.mispredRatePct);
    w.field("accuracy_pct", r.accuracyPct);
    w.field("early_resolved_pct", r.earlyResolvedPct);
    w.field("shadow_mispred_pct", r.shadowMispredRatePct);
    // Sampled-simulation annotations. For full runs: sampled=false,
    // measured_insts/ipc_error_bound are 0 and detailed_insts is
    // warmup + measurement (everything ran in detail).
    w.field("sampling", s.samplingName);
    w.field("sampled", r.sampled);
    w.field("measured_insts", r.measuredInsts);
    w.field("detailed_insts", r.detailedInsts);
    w.field("ipc_error_bound", r.ipcErrorBound);
    // Content identity of the workload artifact behind the run
    // (recorded or replayed — the same trace hashes the same, so a
    // replaying sweep's document matches its recording sweep's).
    // Omitted entirely for trace-less runs: their byte layout
    // predates the field and must not change.
    if (!r.traceHash.empty())
        w.field("trace_hash", r.traceHash);
    // Host wall time: nondeterministic by design — byte-identity
    // consumers must scrub it, the breakdown below, and the
    // summary's total_host_ms (the shared pattern is any key ending
    // in "host_ms"; see test_sweep_engine.cpp / the CI determinism
    // smoke).
    w.field("host_ms", r.hostMs);
    // Where host_ms went: cell build cost amortized over the cell's
    // runs, fast-forward (skip + warm tiers, sampled runs only) and
    // detailed cycle-by-cycle windows.
    w.field("build_host_ms", r.buildHostMs);
    w.field("ff_host_ms", r.ffHostMs);
    w.field("window_host_ms", r.windowHostMs);
    w.key("counters");
    w.beginObject();
    for (const auto &f : core::kCoreStatsFields)
        w.field(f.name, r.stats.*f.member);
    w.endObject();
    w.endObject();
}

sim::RunResult
parseRunJson(const jsonmin::JsonValue &run)
{
    using Kind = jsonmin::JsonValue::Kind;
    const char *what = "run object";
    auto num = [&](const char *key) {
        return jsonmin::field(run, key, Kind::Number, what).number;
    };
    sim::RunResult out;
    out.benchmark = jsonmin::field(run, "benchmark", Kind::String, what).str;
    out.ipc = num("ipc");
    out.mispredRatePct = num("mispred_pct");
    out.accuracyPct = num("accuracy_pct");
    out.earlyResolvedPct = num("early_resolved_pct");
    out.shadowMispredRatePct = num("shadow_mispred_pct");
    out.sampled = jsonmin::field(run, "sampled", Kind::Bool, what).boolean;
    out.measuredInsts = jsonmin::u64Field(run, "measured_insts", what);
    out.detailedInsts = jsonmin::u64Field(run, "detailed_insts", what);
    out.ipcErrorBound = num("ipc_error_bound");
    if (run.get("trace_hash") != nullptr)
        out.traceHash =
            jsonmin::field(run, "trace_hash", Kind::String, what).str;
    out.hostMs = num("host_ms");
    out.buildHostMs = num("build_host_ms");
    out.ffHostMs = num("ff_host_ms");
    out.windowHostMs = num("window_host_ms");
    const jsonmin::JsonValue &counters =
        jsonmin::field(run, "counters", Kind::Object, what);
    for (const auto &f : core::kCoreStatsFields)
        out.stats.*f.member = jsonmin::u64Field(counters, f.name, what);
    return out;
}

sim::RunResult
parseRunJson(const std::string &text)
{
    return parseRunJson(jsonmin::parseJson(text, "run object"));
}

void
JsonSink::write(std::ostream &os, const std::vector<RunSpec> &specs,
                const std::vector<sim::RunResult> &results) const
{
    checkAligned(specs, results);
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "pp.sweep.v1");
    w.key("runs");
    w.beginArray();
    for (std::size_t i = 0; i < specs.size(); ++i)
        writeRunJson(w, specs[i], results[i]);
    w.endArray();
    // Sweep-level roll-up: how much work the sweep actually did. With a
    // sampling axis in play, total_detailed_insts against the runs'
    // windows is the sampling speedup made visible in the output itself.
    std::uint64_t total_detailed = 0;
    std::uint64_t total_measured = 0;
    std::uint64_t sampled_runs = 0;
    double total_host_ms = 0.0;
    for (const sim::RunResult &r : results) {
        total_detailed += r.detailedInsts;
        total_measured += r.sampled ? r.measuredInsts
                                    : r.stats.committedInsts;
        sampled_runs += r.sampled ? 1 : 0;
        total_host_ms += r.hostMs;
    }
    w.key("summary");
    w.beginObject();
    w.field("runs", static_cast<std::uint64_t>(results.size()));
    w.field("sampled_runs", sampled_runs);
    w.field("total_detailed_insts", total_detailed);
    w.field("total_measured_insts", total_measured);
    w.field("total_host_ms", total_host_ms);
    if (haveCounters_) {
        // Shared-cache statistics from the engine (deterministic: a
        // pure function of the spec list and options).
        w.field("binaries_built", counters_.binariesBuilt);
        w.field("decoded_programs", counters_.decodedPrograms);
        w.field("decoded_cache_hits", counters_.decodedCacheHits);
        w.field("traces_loaded", counters_.tracesLoaded);
        w.field("trace_cache_hits", counters_.traceCacheHits);
        w.field("checkpoints_built", counters_.checkpointsBuilt);
        w.field("checkpoint_cache_hits", counters_.checkpointCacheHits);
        w.field("results_cached", counters_.resultsCached);
        w.field("result_cache_hits", counters_.resultCacheHits);
    }
    w.endObject();
    w.endObject();
    os << "\n";
}

void
CsvSink::write(std::ostream &os, const std::vector<RunSpec> &specs,
               const std::vector<sim::RunResult> &results) const
{
    checkAligned(specs, results);
    os << "benchmark,suite,if_converted,scheme,config,seed,warmup_insts,"
          "measure_insts,ipc,mispred_pct,accuracy_pct,early_resolved_pct,"
          "shadow_mispred_pct,sampling,sampled,measured_insts,"
          "ipc_error_bound,trace_hash";
    for (const auto &f : core::kCoreStatsFields)
        os << "," << f.name;
    os << "\n";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &s = specs[i];
        const sim::RunResult &r = results[i];
        os << s.profile.name << "," << (s.profile.isFp ? "fp" : "int")
           << "," << (s.ifConvert ? 1 : 0) << "," << s.schemeName << ","
           << s.configName << "," << s.profile.seed << ","
           << s.warmupInsts << "," << s.measureInsts << ","
           << jsonmin::formatDouble(r.ipc) << ","
           << jsonmin::formatDouble(r.mispredRatePct) << ","
           << jsonmin::formatDouble(r.accuracyPct) << ","
           << jsonmin::formatDouble(r.earlyResolvedPct) << ","
           << jsonmin::formatDouble(r.shadowMispredRatePct);
        // Sampling annotations are deterministic; full runs leave them
        // empty so spreadsheets can tell "not sampled" from "zero". The
        // policy-name column disambiguates rows in multi-policy sweeps.
        if (r.sampled) {
            os << "," << s.samplingName << ",1," << r.measuredInsts
               << "," << jsonmin::formatDouble(r.ipcErrorBound);
        } else {
            os << ",,,,";
        }
        // Workload-artifact identity; empty for trace-less runs.
        os << "," << r.traceHash;
        for (const auto &f : core::kCoreStatsFields)
            os << "," << r.stats.*f.member;
        os << "\n";
    }
}

std::string
scrubHostMs(const std::string &json)
{
    static const std::regex re("\"([a-z_]*host_ms)\":[-+0-9.eE]+");
    return std::regex_replace(json, re, "\"$1\":0");
}

} // namespace driver
} // namespace pp
