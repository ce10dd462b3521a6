#include "cache/result_cache.hh"

#include <filesystem>
#include <sstream>
#include <system_error>

#include "common/atomic_io.hh"
#include "common/bytestream.hh"
#include "common/fnv.hh"
#include "program/suite.hh"

namespace pp
{
namespace cache
{

namespace
{

constexpr ArtifactFormat kEntryFormat{0x6568636163727070ull, // "pprcache"
                                      2, "result-cache entry"};

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
    return dir_ + "/objects/" + hashHex(fnv1a(key_text)) + ".pprc";
}

std::vector<std::uint8_t>
ResultCache::encodeEntry(const std::string &key_text,
                         const std::string &payload)
{
    std::vector<std::uint8_t> out;
    putString(out, key_text);
    putString(out, payload);
    return frameArtifact(kEntryFormat, out);
}

std::string
ResultCache::readEntry(const std::string &path,
                       const std::string &key_text)
{
    const std::vector<std::uint8_t> bytes = readArtifact(kEntryFormat, path);
    checkFrame(kEntryFormat, bytes, path);
    ByteReader r{bytes, kEntryFormat.name, kFrameBytes, &path};
    // The stored key defeats filename aliasing: a hit is only a hit
    // when the entry was stored under EXACTLY this key.
    if (r.str() != key_text)
        r.fail(ArtifactError::Kind::Mismatch, kFrameBytes,
               "stored under another key (aliased entry)");
    std::string payload = r.str();
    r.expectEnd();
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
    } catch (const ArtifactError &) {
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
    const std::string path = objectPath(key_text);
    const std::vector<std::uint8_t> bytes = encodeEntry(key_text, payload);
    std::string error;
    if (!writeFileAtomic(path, std::string(bytes.begin(), bytes.end()),
                         &error))
        throw ArtifactError(ArtifactError::Kind::Io, kEntryFormat.name,
                            path, 0, error);
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
