#include "driver/replay_sink.hh"

#include <sstream>

namespace pp
{
namespace driver
{

void
writeReplayConfigJson(JsonWriter &w, const replay::ReplayConfigResult &c,
                      std::uint64_t measure_insts)
{
    w.beginObject();
    w.field("name", c.name);
    w.field("storage_bytes", c.storageBytes);
    const replay::ReplayStats &s = c.stats;
    w.field("cond_branches", s.condBranches);
    w.field("mispredicted", s.mispredicted);
    w.field("mispred_pct", s.mispredPct());
    w.field("mpki", s.mpki(measure_insts));
    w.field("l1_mispredicted", s.l1Mispredicted);
    w.field("mispred_taken", s.mispredTaken);
    w.field("mispred_not_taken", s.mispredNotTaken);
    w.field("br_branches", s.brBranches);
    w.field("br_mispredicted", s.brMispredicted);
    w.field("call_branches", s.callBranches);
    w.field("call_mispredicted", s.callMispredicted);
    w.field("ret_branches", s.retBranches);
    w.field("ret_mispredicted", s.retMispredicted);
    w.field("compares", s.compares);
    w.field("pd1_mispredicts", s.pd1Mispredicts);
    w.field("pd2_mispredicts", s.pd2Mispredicts);
    w.field("confident_pd1", s.confidentPd1);
    w.field("confident_pd1_wrong", s.confidentPd1Wrong);
    w.field("shadow_mispredicts", s.shadowMispredicts);
    w.endObject();
}

replay::ReplayConfigResult
parseReplayConfigJson(const jsonmin::JsonValue &doc)
{
    const char *what = "replay config object";
    auto count = [&doc, what](const char *key) {
        return jsonmin::u64Field(doc, key, what);
    };
    replay::ReplayConfigResult out;
    out.name =
        jsonmin::field(doc, "name", jsonmin::JsonValue::Kind::String, what)
            .str;
    out.storageBytes = count("storage_bytes");
    replay::ReplayStats &s = out.stats;
    s.condBranches = count("cond_branches");
    s.mispredicted = count("mispredicted");
    s.l1Mispredicted = count("l1_mispredicted");
    s.mispredTaken = count("mispred_taken");
    s.mispredNotTaken = count("mispred_not_taken");
    s.brBranches = count("br_branches");
    s.brMispredicted = count("br_mispredicted");
    s.callBranches = count("call_branches");
    s.callMispredicted = count("call_mispredicted");
    s.retBranches = count("ret_branches");
    s.retMispredicted = count("ret_mispredicted");
    s.compares = count("compares");
    s.pd1Mispredicts = count("pd1_mispredicts");
    s.pd2Mispredicts = count("pd2_mispredicts");
    s.confidentPd1 = count("confident_pd1");
    s.confidentPd1Wrong = count("confident_pd1_wrong");
    s.shadowMispredicts = count("shadow_mispredicts");
    return out;
}

replay::ReplayConfigResult
parseReplayConfigJson(const std::string &text)
{
    return parseReplayConfigJson(
        jsonmin::parseJson(text, "replay config object"));
}

void
writeReplayWorkloadJson(JsonWriter &w,
                        const replay::ReplayWorkloadResult &r)
{
    w.beginObject();
    w.field("benchmark", r.benchmark);
    w.field("if_convert", r.ifConvert);
    w.field("trace_hash", r.traceHash);
    w.field("warmup_insts", r.warmupInsts);
    w.field("measure_insts", r.measureInsts);
    w.field("stream_events", r.streamEvents);
    w.field("stream_branches", r.streamBranches);
    w.field("stream_compares", r.streamCompares);
    w.field("build_host_ms", r.buildHostMs);
    w.field("stream_host_ms", r.streamHostMs);
    w.field("replay_host_ms", r.replayHostMs);
    w.key("configs");
    w.beginArray();
    for (const replay::ReplayConfigResult &c : r.configs)
        writeReplayConfigJson(w, c, r.measureInsts);
    w.endArray();
    w.endObject();
}

void
writeReplayJson(std::ostream &os,
                const std::vector<replay::ReplayWorkloadResult> &rs)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "pp.replay.v1");
    w.key("workloads");
    w.beginArray();
    for (const replay::ReplayWorkloadResult &r : rs)
        writeReplayWorkloadJson(w, r);
    w.endArray();

    std::uint64_t configs = 0;
    std::uint64_t stream_events = 0;
    std::uint64_t cond_branches = 0;
    double host_ms = 0.0;
    for (const replay::ReplayWorkloadResult &r : rs) {
        configs = std::max<std::uint64_t>(configs, r.configs.size());
        stream_events += r.streamEvents;
        for (const replay::ReplayConfigResult &c : r.configs)
            cond_branches += c.stats.condBranches;
        host_ms += r.buildHostMs + r.streamHostMs + r.replayHostMs;
    }
    w.key("summary");
    w.beginObject();
    w.field("workloads", static_cast<std::uint64_t>(rs.size()));
    w.field("configs", configs);
    w.field("streams_built", static_cast<std::uint64_t>(rs.size()));
    w.field("stream_events", stream_events);
    w.field("cond_branches", cond_branches);
    w.field("total_host_ms", host_ms);
    w.endObject();
    w.endObject();
    os << "\n";
}

std::string
replayJsonString(const std::vector<replay::ReplayWorkloadResult> &rs)
{
    std::ostringstream os;
    writeReplayJson(os, rs);
    return os.str();
}

void
writeReplayJsonFile(const std::string &path,
                    const std::vector<replay::ReplayWorkloadResult> &rs)
{
    withOutputStream(path,
                     [&](std::ostream &os) { writeReplayJson(os, rs); });
}

} // namespace driver
} // namespace pp
