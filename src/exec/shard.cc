#include "exec/shard.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/atomic_io.hh"
#include "common/bytestream.hh"
#include "common/fnv.hh"
#include "common/json_min.hh"
#include "common/logging.hh"
#include "core/corestats.hh"
#include "driver/result_sink.hh"
#include "driver/sweep_engine.hh"
#include "exec/fault.hh"

namespace pp
{
namespace exec
{

namespace
{

constexpr const char *kShardSchema = "pp.shard.v1";

/**
 * The runs-array bytes payload_hash covers: everything between the
 * value of the "runs" key and the closing "}" of the document. Both
 * writer and reader slice with this one rule.
 */
std::string
extractPayload(const std::string &text)
{
    const std::size_t pos = text.find("\"runs\":");
    if (pos == std::string::npos)
        throw ShardError("shard fragment: no runs array");
    const std::size_t from = pos + 7;
    // Writer always ends the document "]}\n".
    if (text.size() < from + 3 || text.compare(text.size() - 3, 3, "]}\n") != 0)
        throw ShardError("shard fragment: truncated document");
    return text.substr(from, text.size() - 2 - from);
}

const jsonmin::JsonValue &
member(const jsonmin::JsonValue &obj, const char *key)
{
    const jsonmin::JsonValue *v = obj.get(key);
    if (v == nullptr)
        throw ShardError(std::string("shard fragment: missing field '") +
                         key + "'");
    return *v;
}

std::uint64_t
u64(const jsonmin::JsonValue &obj, const char *key)
{
    return jsonmin::u64Field<ShardError>(obj, key, "shard fragment");
}

/** The identity fields of one run object, as a RunSpec for comparison
 *  and labelling (every other member left at its default). */
driver::RunSpec
runIdentity(const jsonmin::JsonValue &run)
{
    driver::RunSpec s;
    s.profile.name = member(run, "benchmark").str;
    s.ifConvert = member(run, "if_converted").boolean;
    s.schemeName = member(run, "scheme").str;
    s.configName = member(run, "config").str;
    s.profile.seed = u64(run, "seed");
    s.warmupInsts = u64(run, "warmup_insts");
    s.measureInsts = u64(run, "measure_insts");
    s.samplingName = member(run, "sampling").str;
    return s;
}

bool
sameIdentity(const driver::RunSpec &a, const driver::RunSpec &b)
{
    return a.profile.name == b.profile.name && a.ifConvert == b.ifConvert &&
        a.schemeName == b.schemeName && a.configName == b.configName &&
        a.profile.seed == b.profile.seed &&
        a.warmupInsts == b.warmupInsts &&
        a.measureInsts == b.measureInsts &&
        a.samplingName == b.samplingName;
}

} // namespace

std::vector<std::pair<std::size_t, std::size_t>>
shardRanges(std::size_t n, std::size_t shards)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    if (shards == 0)
        shards = 1;
    const std::size_t base = n / shards;
    const std::size_t extra = n % shards;
    std::size_t at = 0;
    for (std::size_t i = 0; i < shards && at < n; ++i) {
        const std::size_t len = base + (i < extra ? 1 : 0);
        if (len == 0)
            continue;
        out.emplace_back(at, at + len);
        at += len;
    }
    return out;
}

std::uint64_t
specCost(const driver::RunSpec &spec)
{
    const std::uint64_t window = spec.warmupInsts + spec.measureInsts;
    if (!spec.sampling.enabled())
        return window;
    // Windows the sampled run executes in detail, plus the functional
    // fast-forward over the rest of the region at a steep discount.
    const std::uint64_t windows =
        spec.measureInsts / spec.sampling.periodInsts + 1;
    return windows * spec.sampling.windowInsts() + window / 16;
}

std::vector<std::size_t>
leaseOrder(const std::vector<driver::RunSpec> &specs,
           const std::vector<std::pair<std::size_t, std::size_t>> &ranges)
{
    std::vector<std::uint64_t> cost(ranges.size(), 0);
    for (std::size_t i = 0; i < ranges.size(); ++i)
        for (std::size_t s = ranges[i].first; s < ranges[i].second; ++s)
            cost[i] += specCost(specs[s]);
    std::vector<std::size_t> order(ranges.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });
    return order;
}

std::string
shardFragmentJson(std::size_t begin,
                  const std::vector<driver::RunSpec> &specs,
                  const std::vector<sim::RunResult> &results,
                  const ShardWorkerStats *stats)
{
    if (specs.size() != results.size())
        panic("shard fragment: specs/results size mismatch");
    std::ostringstream runs_os;
    {
        driver::JsonWriter w(runs_os);
        w.beginArray();
        for (std::size_t i = 0; i < specs.size(); ++i)
            driver::writeRunJson(w, specs[i], results[i]);
        w.endArray();
    }
    const std::string runs = runs_os.str();
    std::ostringstream os;
    os << "{\"schema\":\"" << kShardSchema << "\",\"begin\":" << begin
       << ",\"end\":" << begin + specs.size();
    if (stats != nullptr) {
        // Header-only annotations: payload_hash pins the runs array, so
        // these never perturb merge byte-identity.
        os << ",\"result_cache_hits\":" << stats->resultCacheHits
           << ",\"runs_simulated\":" << stats->runsSimulated;
    }
    os << ",\"payload_hash\":\"" << hashHex(fnv1a(runs))
       << "\",\"runs\":" << runs << "}\n";
    return os.str();
}

std::vector<sim::RunResult>
readShardFragment(const std::string &path,
                  const std::vector<driver::RunSpec> &specs,
                  std::size_t expect_begin, std::size_t expect_end,
                  ShardWorkerStats *stats)
{
    panicIfNot(expect_end <= specs.size(),
               "shard fragment: expected range exceeds the spec list");
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw ShardError("cannot open shard fragment: " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    // Hash first (like the trace loader): any damage reports as
    // corruption, not as whatever parse error it decodes into.
    const std::string payload = extractPayload(text);

    jsonmin::JsonValue doc;
    try {
        doc = jsonmin::parseJson(text);
    } catch (const jsonmin::JsonParseError &e) {
        throw ShardError(std::string("shard fragment ") + path + ": " +
                         e.what());
    }
    const jsonmin::JsonValue &schema = member(doc, "schema");
    if (schema.str != kShardSchema)
        throw ShardError("shard fragment " + path +
                         ": unexpected schema '" + schema.str + "'");
    const jsonmin::JsonValue &hash = member(doc, "payload_hash");
    if (hash.str != hashHex(fnv1a(payload)))
        throw ShardError("shard fragment " + path +
                         ": payload hash mismatch (corrupt output)");
    const std::size_t begin = u64(doc, "begin");
    const std::size_t end = u64(doc, "end");
    if (begin != expect_begin || end != expect_end) {
        throw ShardError(
            "shard fragment " + path + ": covers [" +
            std::to_string(begin) + "," + std::to_string(end) +
            "), expected [" + std::to_string(expect_begin) + "," +
            std::to_string(expect_end) + ")");
    }
    const jsonmin::JsonValue &runs = member(doc, "runs");
    if (runs.kind != jsonmin::JsonValue::Kind::Array ||
        runs.items.size() != end - begin) {
        throw ShardError("shard fragment " + path +
                         ": runs array does not match the range");
    }
    if (stats != nullptr) {
        // Optional header fields: a fragment written without worker
        // stats omits them.
        auto count = [&doc](const char *key) {
            return doc.get(key) == nullptr ? 0 : u64(doc, key);
        };
        stats->resultCacheHits = count("result_cache_hits");
        stats->runsSimulated = count("runs_simulated");
    }
    std::vector<sim::RunResult> out;
    out.reserve(runs.items.size());
    for (std::size_t i = 0; i < runs.items.size(); ++i) {
        const driver::RunSpec &want = specs[begin + i];
        const driver::RunSpec got = runIdentity(runs.items[i]);
        if (!sameIdentity(got, want)) {
            throw ShardError("shard fragment " + path + ": spec " +
                             std::to_string(begin + i) + " holds run '" +
                             got.label() + "', expected '" +
                             want.label() + "'");
        }
        try {
            out.push_back(driver::parseRunJson(runs.items[i]));
        } catch (const driver::ResultParseError &e) {
            throw ShardError("shard fragment " + path + ": " + e.what());
        }
    }
    return out;
}

void
runShardWorker(const std::vector<driver::RunSpec> &specs,
               std::size_t begin, std::size_t end, unsigned threads,
               const std::string &out_path,
               const std::string &checkpoint_dir,
               const std::string &result_cache_dir)
{
    applyStartFault();
    if (begin >= end || end > specs.size()) {
        fatal("shard range [" + std::to_string(begin) + "," +
              std::to_string(end) + ") out of bounds (have " +
              std::to_string(specs.size()) + " specs)");
    }
    const std::vector<driver::RunSpec> slice(specs.begin() + begin,
                                             specs.begin() + end);
    driver::SweepOptions opts;
    opts.threads = threads;
    opts.checkpointDir = checkpoint_dir;
    opts.resultCacheDir = result_cache_dir;
    driver::SweepEngine engine(opts);
    std::vector<sim::RunResult> results;
    try {
        results = engine.run(slice);
    } catch (const ArtifactError &e) {
        // A damaged or mis-keyed trace or checkpoint set: report it
        // distinctly so the supervisor classifies corrupt-trace, not
        // crash.
        std::fprintf(stderr, "corrupt artifact: %s\n", e.what());
        std::exit(kTraceErrorExit);
    }
    ShardWorkerStats wstats;
    wstats.resultCacheHits = engine.resultCacheUse().hits;
    wstats.runsSimulated = engine.resultCacheUse().simulated;
    std::string error;
    if (!writeFileAtomic(out_path,
                         shardFragmentJson(begin, slice, results, &wstats),
                         &error))
        fatal("cannot write shard fragment: " + error);
    applyOutputFault(out_path);
}

} // namespace exec
} // namespace pp
