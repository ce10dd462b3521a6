#include "driver/result_sink.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/atomic_io.hh"
#include "common/logging.hh"
#include "core/corestats.hh"

namespace pp
{
namespace driver
{

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

namespace
{

std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (!firstInScope_.back())
        os_ << ",";
    firstInScope_.back() = false;
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    os_ << "{";
    firstInScope_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    firstInScope_.pop_back();
    os_ << "}";
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    os_ << "[";
    firstInScope_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    firstInScope_.pop_back();
    os_ << "]";
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    separate();
    os_ << "\"" << jsonmin::escape(k) << "\":";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    os_ << "\"" << jsonmin::escape(v) << "\"";
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    os_ << formatDouble(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    os_ << (v ? "true" : "false");
    return *this;
}

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

namespace
{

const jsonmin::JsonValue &
member(const jsonmin::JsonValue &obj, const char *key)
{
    const jsonmin::JsonValue *v = obj.get(key);
    if (v == nullptr)
        throw ResultParseError(std::string("run object: missing field '") +
                               key + "'");
    return *v;
}

double
num(const jsonmin::JsonValue &obj, const char *key)
{
    const jsonmin::JsonValue &v = member(obj, key);
    if (v.kind != jsonmin::JsonValue::Kind::Number)
        throw ResultParseError(std::string("run object: field '") + key +
                               "' is not a number");
    return v.number;
}

} // namespace

sim::RunResult
parseRunJson(const jsonmin::JsonValue &run)
{
    sim::RunResult out;
    const jsonmin::JsonValue &bench = member(run, "benchmark");
    out.benchmark = bench.str;
    out.ipc = num(run, "ipc");
    out.mispredRatePct = num(run, "mispred_pct");
    out.accuracyPct = num(run, "accuracy_pct");
    out.earlyResolvedPct = num(run, "early_resolved_pct");
    out.shadowMispredRatePct = num(run, "shadow_mispred_pct");
    const jsonmin::JsonValue &sampled = member(run, "sampled");
    if (sampled.kind != jsonmin::JsonValue::Kind::Bool)
        throw ResultParseError("run object: 'sampled' is not a bool");
    out.sampled = sampled.boolean;
    out.measuredInsts = jsonmin::u64Field<ResultParseError>(
        run, "measured_insts", "run object");
    out.detailedInsts = jsonmin::u64Field<ResultParseError>(
        run, "detailed_insts", "run object");
    out.ipcErrorBound = num(run, "ipc_error_bound");
    if (const jsonmin::JsonValue *th = run.get("trace_hash")) {
        if (th->kind != jsonmin::JsonValue::Kind::String)
            throw ResultParseError(
                "run object: 'trace_hash' is not a string");
        out.traceHash = th->str;
    }
    out.hostMs = num(run, "host_ms");
    out.buildHostMs = num(run, "build_host_ms");
    out.ffHostMs = num(run, "ff_host_ms");
    out.windowHostMs = num(run, "window_host_ms");
    const jsonmin::JsonValue &counters = member(run, "counters");
    for (const auto &f : core::kCoreStatsFields)
        out.stats.*f.member = jsonmin::u64Field<ResultParseError>(
            counters, f.name, "run object");
    return out;
}

sim::RunResult
parseRunJson(const std::string &text)
{
    jsonmin::JsonValue doc;
    try {
        doc = jsonmin::parseJson(text);
    } catch (const jsonmin::JsonParseError &e) {
        throw ResultParseError(std::string("run object: ") + e.what());
    }
    return parseRunJson(doc);
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
           << formatDouble(r.ipc) << ","
           << formatDouble(r.mispredRatePct) << ","
           << formatDouble(r.accuracyPct) << ","
           << formatDouble(r.earlyResolvedPct) << ","
           << formatDouble(r.shadowMispredRatePct);
        // Sampling annotations are deterministic; full runs leave them
        // empty so spreadsheets can tell "not sampled" from "zero". The
        // policy-name column disambiguates rows in multi-policy sweeps.
        if (r.sampled) {
            os << "," << s.samplingName << ",1," << r.measuredInsts
               << "," << formatDouble(r.ipcErrorBound);
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

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

std::vector<SchemeAggregate>
aggregate(const std::vector<RunSpec> &specs,
          const std::vector<sim::RunResult> &results)
{
    checkAligned(specs, results);

    struct Bucket
    {
        SchemeAggregate agg;
        double logIpcSum = 0.0;
    };

    // Scheme axis labels in first-appearance order.
    std::vector<std::string> schemes;
    for (const auto &s : specs) {
        std::string label = s.schemeName;
        if (!s.configName.empty())
            label += "/" + s.configName;
        bool seen = false;
        for (const auto &k : schemes)
            seen = seen || k == label;
        if (!seen)
            schemes.push_back(label);
    }

    std::vector<SchemeAggregate> out;
    for (const auto &scheme : schemes) {
        const char *suites[] = {"int", "fp", "all"};
        for (const char *suite : suites) {
            Bucket b;
            b.agg.scheme = scheme;
            b.agg.suite = suite;
            for (std::size_t i = 0; i < specs.size(); ++i) {
                const RunSpec &s = specs[i];
                std::string label = s.schemeName;
                if (!s.configName.empty())
                    label += "/" + s.configName;
                if (label != scheme)
                    continue;
                const bool want_fp = suite[0] == 'f';
                if (suite[0] != 'a' && s.profile.isFp != want_fp)
                    continue;
                const sim::RunResult &r = results[i];
                ++b.agg.runs;
                b.agg.meanIpc += r.ipc;
                b.agg.meanMispredPct += r.mispredRatePct;
                b.agg.meanAccuracyPct += r.accuracyPct;
                b.agg.meanEarlyResolvedPct += r.earlyResolvedPct;
                b.logIpcSum += std::log(r.ipc > 0.0 ? r.ipc : 1e-12);
            }
            if (b.agg.runs == 0)
                continue;
            const double n = static_cast<double>(b.agg.runs);
            b.agg.meanIpc /= n;
            b.agg.meanMispredPct /= n;
            b.agg.meanAccuracyPct /= n;
            b.agg.meanEarlyResolvedPct /= n;
            b.agg.geomeanIpc = std::exp(b.logIpcSum / n);
            out.push_back(b.agg);
        }
    }
    return out;
}

} // namespace driver
} // namespace pp
