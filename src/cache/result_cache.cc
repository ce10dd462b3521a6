#include "cache/result_cache.hh"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/atomic_io.hh"
#include "common/fnv.hh"
#include "common/json_min.hh"
#include "program/suite.hh"

namespace pp
{
namespace cache
{

namespace
{

constexpr const char *kSchema = "pp.rcache.v1";

void
cacheKeyText(std::ostream &os, const memory::CacheConfig &c)
{
    os << c.name << "," << c.sizeBytes << "," << c.assoc << ","
       << c.blockBytes << "," << c.hitLatency << "," << c.mshrs << ","
       << c.writeBuffers;
}

void
tlbKeyText(std::ostream &os, const memory::TlbConfig &t)
{
    os << t.entries << "," << t.pageBytes << "," << t.missPenalty;
}

} // namespace

std::string
coreConfigKeyText(const core::CoreConfig &c)
{
    std::ostringstream os;
    os << "fw=" << c.fetchWidth << ",rw=" << c.renameWidth
       << ",cw=" << c.commitWidth << ",rob=" << c.robEntries
       << ",iiq=" << c.intIqEntries << ",fiq=" << c.fpIqEntries
       << ",biq=" << c.brIqEntries << ",lq=" << c.lqEntries
       << ",sq=" << c.sqEntries << ",fb=" << c.fetchBufferEntries
       << ",ipr=" << c.intPhysRegs << ",fpr=" << c.fpPhysRegs
       << ",ppr=" << c.predPhysRegs << ",fed=" << c.frontEndDepth
       << ",rec=" << c.mispredictRecovery;
    os << ",fu=" << c.intAluUnits << "/" << c.intMultUnits << "/"
       << c.fpAddUnits << "/" << c.fpMulUnits << "/" << c.memPorts
       << "/" << c.branchUnits;
    os << ",lat=" << c.intAluLat << "/" << c.intMultLat << "/"
       << c.fpAddLat << "/" << c.fpMulLat << "/" << c.fpDivLat << "/"
       << c.compareLat << "/" << c.branchLat << "/" << c.agenLat << "/"
       << c.forwardLat;
    os << ",sch=" << static_cast<unsigned>(c.scheme)
       << ",prd=" << static_cast<unsigned>(c.predication)
       << ",ina=" << c.idealNoAlias << ",iph=" << c.idealPerfectHistory
       << ",shd=" << c.shadowConventional;
    os << ",gsh=" << c.gshare.historyBits << "/" << c.gshare.counterBits;
    os << ",per=" << c.perceptron.tableEntries << "/"
       << c.perceptron.globalBits << "/" << c.perceptron.localBits << "/"
       << c.perceptron.lhtEntries << "/" << c.perceptron.threshold << "/"
       << c.perceptron.noAlias << "/" << c.perceptron.perfectHistory
       << "/" << c.perceptron.accessLatency;
    os << ",pep=" << c.peppa.localBits << "/" << c.peppa.lhtEntries
       << "/" << c.peppa.phtBits << "/" << c.peppa.counterBits << "/"
       << c.peppa.accessLatency;
    os << ",pp=" << c.predicate.tableEntries << "/"
       << c.predicate.globalBits << "/" << c.predicate.localBits << "/"
       << c.predicate.lhtEntries << "/" << c.predicate.threshold << "/"
       << static_cast<unsigned>(c.predicate.pvtMode) << "/"
       << c.predicate.confidenceBits << "/" << c.predicate.noAlias
       << "/" << c.predicate.perfectHistory << "/"
       << c.predicate.accessLatency;
    os << ",l1i=";
    cacheKeyText(os, c.mem.l1i);
    os << ",l1d=";
    cacheKeyText(os, c.mem.l1d);
    os << ",l2=";
    cacheKeyText(os, c.mem.l2);
    os << ",itlb=";
    tlbKeyText(os, c.mem.itlb);
    os << ",dtlb=";
    tlbKeyText(os, c.mem.dtlb);
    os << ",mem=" << c.mem.memLatency << ",db=" << c.mem.dataBase;
    return os.str();
}

std::string
schemeConfigKeyText(const sim::SchemeConfig &s)
{
    std::ostringstream os;
    os << "sch=" << static_cast<unsigned>(s.scheme)
       << ",prd=" << static_cast<unsigned>(s.predication)
       << ",ina=" << s.idealNoAlias << ",iph=" << s.idealPerfectHistory
       << ",shd=" << s.shadowConventional << ",spv=" << s.splitPvt
       << ",cb=" << s.confidenceBits;
    return os.str();
}

std::string
workloadIdentity(const sim::Workload &workload,
                 const std::string &trace_hash)
{
    if (!trace_hash.empty())
        return "trace:" + trace_hash;
    return "profile:{" + program::profileKeyText(workload.profile) +
           "},ifc=" + (workload.ifConvert ? "1" : "0");
}

std::string
runKeyText(const driver::RunSpec &spec,
           const std::string &workload_identity)
{
    std::ostringstream os;
    os << "salt=" << kResultCacheSalt << "\n"
       << "doc=pp.sweep.v1\n"
       << "workload=" << workload_identity << "\n"
       << "scheme=" << spec.schemeName << ";"
       << schemeConfigKeyText(spec.scheme) << "\n"
       << "config=" << spec.configName << ";"
       << coreConfigKeyText(spec.config) << "\n"
       << "sampling=" << spec.samplingName << ";"
       << spec.sampling.label() << ";h="
       << spec.sampling.warmingHorizon << "\n"
       << "window=" << spec.warmupInsts << ":" << spec.measureInsts
       << "\n";
    return os.str();
}

std::string
cellKeyText(const driver::RunSpec &spec, const std::string &trace_hash)
{
    return runKeyText(spec, workloadIdentity(spec, trace_hash));
}

std::string
replayKeyText(const replay::ReplayWorkloadSpec &workload,
              const std::string &workload_identity,
              const replay::ReplayConfig &config)
{
    std::ostringstream os;
    os << "salt=" << kResultCacheSalt << "\n"
       << "doc=pp.replay.v1\n"
       << "workload=" << workload_identity << "\n"
       << "window=" << workload.warmupInsts << ":"
       << workload.measureInsts << "\n"
       << "replay=" << config.name << ";"
       << schemeConfigKeyText(config.scheme) << ";"
       << coreConfigKeyText(config.config) << "\n";
    return os.str();
}

std::string
runCounterKey(const driver::RunSpec &spec)
{
    return runKeyText(spec, "spec:" + spec.buildKey());
}

// ---------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string
ResultCache::objectPath(const std::string &key_text) const
{
    return dir_ + "/objects/" + hashHex(fnv1a(key_text)) + ".json";
}

std::string
ResultCache::envelopeJson(const std::string &key_text,
                          const std::string &payload)
{
    std::ostringstream os;
    os << "{\"schema\":\"" << kSchema << "\",\"key_hash\":\""
       << hashHex(fnv1a(key_text)) << "\",\"payload_hash\":\""
       << hashHex(fnv1a(payload)) << "\",\"key\":\""
       << jsonmin::escape(key_text) << "\",\"entry\":" << payload << "}\n";
    return os.str();
}

std::string
ResultCache::readEntry(const std::string &path,
                       const std::string &key_text)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw ResultCacheError("cannot open result-cache entry: " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    // The payload is sliced by marker — "entry" is always the last
    // field and the writer always ends the document "}\n" — so the
    // exact emitter bytes come back untouched by any JSON round trip.
    const std::size_t pos = text.find("\"entry\":");
    if (pos == std::string::npos)
        throw ResultCacheError("result-cache entry " + path +
                               ": no entry field (truncated?)");
    const std::size_t from = pos + 8;
    if (text.size() < from + 2 ||
        text.compare(text.size() - 2, 2, "}\n") != 0)
        throw ResultCacheError("result-cache entry " + path +
                               ": truncated document");
    const std::string payload = text.substr(from, text.size() - 2 - from);

    jsonmin::JsonValue doc;
    try {
        doc = jsonmin::parseJson(text);
    } catch (const jsonmin::JsonParseError &e) {
        throw ResultCacheError("result-cache entry " + path + ": " +
                               e.what());
    }
    const jsonmin::JsonValue *schema = doc.get("schema");
    if (schema == nullptr || schema->str != kSchema)
        throw ResultCacheError("result-cache entry " + path +
                               ": unexpected schema");
    // The embedded key (and its hash) defeat filename aliasing: a hit
    // is only a hit when the entry was stored under EXACTLY this key.
    const jsonmin::JsonValue *key = doc.get("key");
    if (key == nullptr || key->str != key_text)
        throw ResultCacheError("result-cache entry " + path +
                               ": key mismatch (aliased entry)");
    const jsonmin::JsonValue *khash = doc.get("key_hash");
    if (khash == nullptr || khash->str != hashHex(fnv1a(key_text)))
        throw ResultCacheError("result-cache entry " + path +
                               ": key hash mismatch");
    const jsonmin::JsonValue *phash = doc.get("payload_hash");
    if (phash == nullptr || phash->str != hashHex(fnv1a(payload)))
        throw ResultCacheError("result-cache entry " + path +
                               ": payload hash mismatch (corrupt)");
    return payload;
}

std::optional<std::string>
ResultCache::lookup(const std::string &key_text)
{
    const std::string path = objectPath(key_text);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        return std::nullopt;
    }
    try {
        std::string payload = readEntry(path, key_text);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.hits;
        return payload;
    } catch (const ResultCacheError &) {
        // Recoverable by construction: the cell re-simulates and
        // store() rewrites the damaged object.
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.corrupt;
        ++stats_.misses;
        return std::nullopt;
    }
}

void
ResultCache::store(const std::string &key_text, const std::string &payload)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_ + "/objects", ec);
    std::string error;
    if (!writeFileAtomic(objectPath(key_text),
                         envelopeJson(key_text, payload), &error))
        throw ResultCacheError("cannot write result-cache entry: " +
                               error);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
}

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace cache
} // namespace pp
