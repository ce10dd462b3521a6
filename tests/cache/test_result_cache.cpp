/**
 * @file
 * Content-addressed result cache: key derivation (every semantic axis
 * salts the key), the on-disk store, corruption recovery (typed miss,
 * never a stale hit, never a panic), and the engine-level contract —
 * a warm rerun executes zero simulations yet emits byte-identical
 * documents, for both the full-sim and the predictor-replay tiers.
 */

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "../common/artifact_mutation.hh"
#include "cache/result_cache.hh"
#include "common/atomic_io.hh"
#include "common/bytestream.hh"
#include "driver/grids.hh"
#include "driver/replay_sink.hh"
#include "driver/result_sink.hh"
#include "driver/run_matrix.hh"
#include "driver/sweep_engine.hh"
#include "program/suite.hh"
#include "replay/predictor_replay.hh"

using namespace pp;

namespace
{

/** Fresh per-test scratch directory (under the gtest temp root). */
std::string
uniqueDir(const std::string &name)
{
    static int counter = 0;
    const std::string d = ::testing::TempDir() + "pprcache-" + name +
        "-" + std::to_string(::getpid()) + "-" +
        std::to_string(counter++);
    std::filesystem::create_directories(d);
    return d;
}

/** The first three suite benchmarks x the two realistic Figure-5
 *  schemes (6 specs) at a short window. */
std::vector<driver::RunSpec>
smallSpecs()
{
    auto suite = program::spec2000Suite();
    suite.resize(3);
    driver::RunMatrix m;
    m.benchmarks(std::move(suite)).ifConvert(false).window(1000, 5000);
    const auto schemes = driver::fig5Schemes();
    m.addScheme(schemes[0].name, schemes[0].scheme);
    m.addScheme(schemes[1].name, schemes[1].scheme);
    return m.specs();
}

driver::RunSpec
baseSpec()
{
    return smallSpecs().front();
}

std::string
keyOf(const driver::RunSpec &spec)
{
    return cache::runKeyText(spec, cache::workloadIdentity(spec, ""));
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(readFileBytes(path, bytes)) << path;
    return bytes;
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    ASSERT_TRUE(
        writeFileAtomic(path, std::string(bytes.begin(), bytes.end())));
}

} // namespace

// ---------------------------------------------------------------------
// Key derivation: every semantic axis must change the key
// ---------------------------------------------------------------------

TEST(ResultCacheKey, EverySemanticAxisSaltsTheKey)
{
    const driver::RunSpec spec = baseSpec();
    const std::string base = keyOf(spec);

    // Identical spec => identical key.
    EXPECT_EQ(keyOf(baseSpec()), base);

    // Scheme change.
    {
        driver::RunSpec s = spec;
        s.scheme.idealNoAlias = !s.scheme.idealNoAlias;
        EXPECT_NE(keyOf(s), base);
    }
    // Core-config change (deep field, not the name).
    {
        driver::RunSpec s = spec;
        s.config.robEntries += 1;
        EXPECT_NE(keyOf(s), base);
    }
    // Sampling-policy change.
    {
        driver::RunSpec s = spec;
        s.samplingName = "smarts";
        s.sampling = sampling::SamplingPolicy::smarts(100000);
        EXPECT_NE(keyOf(s), base);
    }
    // Window change.
    {
        driver::RunSpec s = spec;
        s.measureInsts += 1;
        EXPECT_NE(keyOf(s), base);
    }
    // Workload change: profile seed.
    {
        driver::RunSpec s = spec;
        s.profile.seed += 1;
        EXPECT_NE(keyOf(s), base);
    }
    // Workload change: if-conversion.
    {
        driver::RunSpec s = spec;
        s.ifConvert = !s.ifConvert;
        EXPECT_NE(keyOf(s), base);
    }
    // Trace-backed workload identity differs from generated identity,
    // and differs per content hash.
    const std::string t1 =
        cache::runKeyText(spec, cache::workloadIdentity(spec, "aaaa"));
    const std::string t2 =
        cache::runKeyText(spec, cache::workloadIdentity(spec, "bbbb"));
    EXPECT_NE(t1, base);
    EXPECT_NE(t1, t2);

    // The salt constant itself is embedded in the key text.
    EXPECT_NE(base.find("salt=" +
                        std::to_string(cache::kResultCacheSalt)),
              std::string::npos);
}

TEST(ResultCacheKey, ReplayKeysAreDisjointFromRunKeys)
{
    const driver::RunSpec spec = baseSpec();

    replay::ReplayWorkloadSpec wl;
    wl.profile = spec.profile;
    wl.ifConvert = spec.ifConvert;
    wl.warmupInsts = spec.warmupInsts;
    wl.measureInsts = spec.measureInsts;

    replay::ReplayConfig cfg;
    cfg.name = "gshare";

    const std::string run_key = keyOf(spec);
    const std::string replay_key =
        cache::replayKeyText(wl, cache::workloadIdentity(wl, ""), cfg);
    EXPECT_NE(run_key, replay_key);

    // Config name and contents both salt the replay key.
    replay::ReplayConfig cfg2 = cfg;
    cfg2.name = "gshare-big";
    EXPECT_NE(cache::replayKeyText(
                  wl, cache::workloadIdentity(wl, ""), cfg2),
              replay_key);
    replay::ReplayConfig cfg3 = cfg;
    cfg3.config.gshare.historyBits += 1;
    EXPECT_NE(cache::replayKeyText(
                  wl, cache::workloadIdentity(wl, ""), cfg3),
              replay_key);
}

// ---------------------------------------------------------------------
// Store: persistence across instances, stats
// ---------------------------------------------------------------------

TEST(ResultCacheStore, PersistsAcrossInstancesAndCountsStats)
{
    const std::string dir = uniqueDir("persist");
    const std::string key = keyOf(baseSpec());
    const std::string payload = "{\"benchmark\":\"x\",\"ipc\":1.5}";

    {
        cache::ResultCache c(dir);
        EXPECT_FALSE(c.lookup(key).has_value());
        c.store(key, payload);
        const auto hit = c.lookup(key); // read back from disk
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(*hit, payload);
        EXPECT_EQ(c.stats().misses, 1u);
        EXPECT_EQ(c.stats().stores, 1u);
        EXPECT_EQ(c.stats().hits, 1u);
    }
    // A fresh instance (fresh process, conceptually) reads the disk
    // tier and returns the exact payload bytes.
    cache::ResultCache c2(dir);
    const auto hit = c2.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, payload);
    EXPECT_EQ(c2.stats().hits, 1u);
    EXPECT_EQ(c2.stats().corrupt, 0u);
}

// ---------------------------------------------------------------------
// Corruption: typed recoverable miss — never a panic, never stale
// ---------------------------------------------------------------------

TEST(ResultCacheCorruption, DamagedEntriesAreTypedMisses)
{
    const std::string dir = uniqueDir("corrupt");
    const std::string key = keyOf(baseSpec());
    const std::string payload = "{\"ipc\":2.0}";

    cache::ResultCache writer(dir);
    writer.store(key, payload);
    const std::string obj = writer.objectPath(key);
    ASSERT_FALSE(obj.empty());
    const std::vector<std::uint8_t> good = readBytes(obj);
    ASSERT_EQ(good, cache::ResultCache::encodeEntry(key, payload));

    using Kind = ArtifactError::Kind;
    const auto expectMiss = [&](const std::vector<std::uint8_t> &bytes,
                                Kind kind) {
        writeBytes(obj, bytes);
        // readEntry throws the typed error...
        try {
            cache::ResultCache::readEntry(obj, key);
            ADD_FAILURE() << "accepted a damaged object";
        } catch (const ArtifactError &e) {
            EXPECT_EQ(e.kind(), kind) << e.what();
            EXPECT_EQ(e.path(), obj);
        }
        // ...and lookup() degrades it to a counted miss.
        cache::ResultCache reader(dir);
        EXPECT_FALSE(reader.lookup(key).has_value());
        EXPECT_EQ(reader.stats().corrupt, 1u);
        EXPECT_EQ(reader.stats().misses, 1u);
    };

    // Truncation: inside the header, and inside the payload with the
    // header hash pointing at what is left (the key or entry length
    // then overruns the object).
    expectMiss({good.begin(), good.begin() + 16}, Kind::Truncated);
    {
        std::vector<std::uint8_t> cut(good.begin(), good.end() - 4);
        test::rehashFrame(cut);
        expectMiss(cut, Kind::Truncated);
    }
    // Hash-sound bytes after the entry.
    {
        std::vector<std::uint8_t> longer = good;
        longer.push_back(0);
        test::rehashFrame(longer);
        expectMiss(longer, Kind::Malformed);
    }
    // Bit rot inside the payload, and a torn write cut mid-payload.
    {
        std::vector<std::uint8_t> bad = good;
        bad[bad.size() - 3] ^= 0x01; // inside "2.0"
        expectMiss(bad, Kind::HashMismatch);
        expectMiss({good.begin(), good.begin() + good.size() / 2},
                   Kind::HashMismatch);
    }
    // Garbage, and the empty file.
    {
        const std::string text = "not a result-cache object, just text\n";
        expectMiss({text.begin(), text.end()}, Kind::BadMagic);
        expectMiss({}, Kind::Truncated);
    }
    // Aliased entry: a sound object for a DIFFERENT key sitting at
    // this key's path must never be served (stale-hit defense).
    {
        driver::RunSpec other = baseSpec();
        other.measureInsts += 12345;
        expectMiss(cache::ResultCache::encodeEntry(keyOf(other),
                                                   "{\"ipc\":9.9}"),
                   Kind::Mismatch);
    }

    // The cache recovers: a fresh store over the damaged file serves
    // again.
    cache::ResultCache recover(dir);
    recover.store(key, payload);
    cache::ResultCache verify(dir);
    const auto hit = verify.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, payload);
}

TEST(ResultCacheCorruption, ObjectRoundTrips)
{
    const std::string key = "salt=1\ndoc=test\nworkload=w\n";
    const std::string payload = "{\"a\":1,\"b\":\"x\\\"y\"}";
    const std::vector<std::uint8_t> object =
        cache::ResultCache::encodeEntry(key, payload);

    const std::string path = uniqueDir("obj") + "/e.pprc";
    writeBytes(path, object);
    const std::string entry = cache::ResultCache::readEntry(path, key);
    EXPECT_EQ(entry, payload);
    // Re-encoding what was read gives the object's bytes back.
    EXPECT_EQ(cache::ResultCache::encodeEntry(key, entry), object);
    // Wrong expected key => typed mismatch.
    try {
        cache::ResultCache::readEntry(path, key + "z");
        ADD_FAILURE() << "served another key's entry";
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.kind(), ArtifactError::Kind::Mismatch) << e.what();
    }
}

TEST(ResultCacheCorruption, MutatedObjectsFailTypedOrReencodeToThemselves)
{
    // 1,200 seeded mutations of one stored run object, each with its
    // frame hash recomputed so the key and entry decode is reached.
    // Every case is an ArtifactError and a counted corrupt miss, or
    // decodes and re-encodes to its own bytes: the decoder is canonical.
    const std::string dir = uniqueDir("mutate");
    const driver::RunSpec spec = baseSpec();
    driver::SweepOptions opts;
    opts.resultCacheDir = dir;
    driver::SweepEngine(opts).run(std::vector<driver::RunSpec>{spec});
    const std::string key = keyOf(spec);
    const std::string obj = cache::ResultCache(dir).objectPath(key);
    const std::vector<std::uint8_t> image = readBytes(obj);

    unsigned corrupt_misses = 0;
    auto decode = [&](const std::vector<std::uint8_t> &bytes) {
        writeBytes(obj, bytes);
        try {
            return cache::ResultCache::readEntry(obj, key);
        } catch (const ArtifactError &) {
            cache::ResultCache reader(dir);
            EXPECT_FALSE(reader.lookup(key).has_value());
            corrupt_misses += static_cast<unsigned>(reader.stats().corrupt);
            throw;
        }
    };
    auto encode = [&](const std::string &entry) {
        return cache::ResultCache::encodeEntry(key, entry);
    };
    const test::MutationTally tally =
        test::mutateArtifact(image, 1200, 0x72636163ull, decode, encode);
    EXPECT_EQ(tally.rejected + tally.accepted, 1200u);
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_EQ(tally.reencoded, 0u);
    EXPECT_EQ(corrupt_misses, tally.rejected);
}

// ---------------------------------------------------------------------
// Engine integration: warm rerun = zero simulations, identical bytes
// ---------------------------------------------------------------------

TEST(ResultCacheEngine, WarmSweepSimulatesNothingAndMatchesBytes)
{
    const std::vector<driver::RunSpec> specs = smallSpecs();

    driver::SweepOptions opts;
    opts.resultCacheDir = uniqueDir("engine");
    opts.threads = 2;

    std::string cold_doc;
    driver::SweepCounters cold_counters;
    {
        driver::SweepEngine engine(opts);
        const auto results = engine.run(specs);
        cold_doc = driver::JsonSink{engine.counters()}.toString(specs,
                                                                results);
        cold_counters = engine.counters();
        EXPECT_EQ(engine.resultCacheUse().hits, 0u);
        EXPECT_EQ(engine.resultCacheUse().simulated, specs.size());
        EXPECT_EQ(engine.resultCacheUse().stores, specs.size());
    }
    {
        driver::SweepEngine engine(opts);
        const auto results = engine.run(specs);
        const std::string warm_doc =
            driver::JsonSink{engine.counters()}.toString(specs, results);
        // Byte-identical WITHOUT any host_ms scrub: cached cells replay
        // their emitter bytes verbatim.
        EXPECT_EQ(warm_doc, cold_doc);
        EXPECT_EQ(engine.resultCacheUse().hits, specs.size());
        EXPECT_EQ(engine.resultCacheUse().simulated, 0u);
        // Summary counters stay a pure function of the spec list.
        EXPECT_EQ(engine.counters().resultsCached,
                  cold_counters.resultsCached);
        EXPECT_EQ(engine.counters().resultCacheHits,
                  cold_counters.resultCacheHits);
    }
    // Distinct cells => distinct keys: every spec is its own result.
    EXPECT_EQ(cold_counters.resultsCached, specs.size());
    EXPECT_EQ(cold_counters.resultCacheHits, 0u);
}

TEST(ResultCacheEngine, CorruptEntryReSimulatesThatCellOnly)
{
    const std::vector<driver::RunSpec> specs = smallSpecs();

    driver::SweepOptions opts;
    opts.resultCacheDir = uniqueDir("engine-corrupt");
    std::string cold_doc;
    {
        driver::SweepEngine engine(opts);
        const auto results = engine.run(specs);
        cold_doc = driver::JsonSink{engine.counters()}.toString(specs,
                                                                results);
    }
    // Damage one cell's entry on disk.
    cache::ResultCache probe(opts.resultCacheDir);
    const std::string victim = probe.objectPath(
        cache::runKeyText(specs[2],
                          cache::workloadIdentity(specs[2], "")));
    ASSERT_TRUE(writeFileAtomic(victim, "torn"));

    driver::SweepEngine engine(opts);
    const auto results = engine.run(specs);
    const std::string warm_doc =
        driver::JsonSink{engine.counters()}.toString(specs, results);
    // One cell re-simulated (fresh host_ms), everything else replayed;
    // after the scrub the documents are identical.
    EXPECT_EQ(driver::scrubHostMs(warm_doc), driver::scrubHostMs(cold_doc));
    EXPECT_EQ(engine.resultCacheUse().hits, specs.size() - 1);
    EXPECT_EQ(engine.resultCacheUse().simulated, 1u);
    EXPECT_EQ(engine.resultCacheUse().corrupt, 1u);
}

TEST(ResultCacheEngine, DeeplyNestedEntryReSimulatesThatCellOnly)
{
    // A hash-sound object whose entry is 200,000 nested '[': the lookup
    // hits, and the parser's depth bound (unbounded recursion would
    // overflow the stack) makes the entry a JsonParseError the engine
    // warns on, so that cell alone is simulated again.
    const std::vector<driver::RunSpec> specs = smallSpecs();

    driver::SweepOptions opts;
    opts.resultCacheDir = uniqueDir("engine-nested");
    std::string cold_doc;
    {
        driver::SweepEngine engine(opts);
        const auto results = engine.run(specs);
        cold_doc = driver::JsonSink{engine.counters()}.toString(specs,
                                                                results);
    }
    cache::ResultCache(opts.resultCacheDir)
        .store(keyOf(specs[2]), std::string(200000, '['));

    ::testing::internal::CaptureStderr();
    driver::SweepEngine engine(opts);
    const auto results = engine.run(specs);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("result-cache entry unusable, re-running " +
                       specs[2].label() + ": run object: JSON parse "
                       "error at byte 64: nested deeper than 64 levels"),
              std::string::npos)
        << err;
    EXPECT_EQ(driver::scrubHostMs(driver::JsonSink{engine.counters()}
                                      .toString(specs, results)),
              driver::scrubHostMs(cold_doc));
    EXPECT_EQ(engine.resultCacheUse().hits, specs.size());
    EXPECT_EQ(engine.resultCacheUse().simulated, 1u);
}

TEST(ResultCacheEngine, WarmReplaySweepEvaluatesNothing)
{
    replay::ReplayMatrix matrix;
    auto suite = program::spec2000Suite();
    suite.resize(2);
    matrix.benchmarks(std::move(suite)).window(1000, 5000);
    const auto schemes = driver::fig5Schemes();
    matrix.addConfig(schemes[0].name, schemes[0].scheme);
    matrix.addConfig(schemes[1].name, schemes[1].scheme);

    driver::SweepOptions opts;
    opts.resultCacheDir = uniqueDir("replay");

    std::string cold_doc;
    {
        driver::SweepEngine engine(opts);
        const auto results =
            engine.runReplay(matrix.workloads(), matrix.configs());
        cold_doc = driver::replayJsonString(results);
        EXPECT_EQ(engine.resultCacheUse().simulated,
                  matrix.workloads().size() * matrix.configs().size());
    }
    driver::SweepEngine engine(opts);
    const auto results =
        engine.runReplay(matrix.workloads(), matrix.configs());
    const std::string warm_doc = driver::replayJsonString(results);
    // The replay tier re-extracts streams (host-time fields recompute),
    // so the identity contract is modulo *host_ms.
    EXPECT_EQ(driver::scrubHostMs(warm_doc), driver::scrubHostMs(cold_doc));
    EXPECT_EQ(engine.resultCacheUse().simulated, 0u);
    EXPECT_EQ(engine.resultCacheUse().hits,
              matrix.workloads().size() * matrix.configs().size());
}

TEST(ResultCacheEngine, UnusableReplayEntryReEvaluatesThatCellOnly)
{
    // A hash-sound object under one replay cell's key whose entry is
    // JSON but not a config object: the lookup hits, the parse fails,
    // and the engine warns and evaluates that cell alone again.
    replay::ReplayMatrix matrix;
    auto suite = program::spec2000Suite();
    suite.resize(2);
    matrix.benchmarks(std::move(suite)).window(1000, 5000);
    for (const auto &s : driver::fig5Schemes())
        matrix.addConfig(s.name, s.scheme);
    const auto workloads = matrix.workloads();
    const auto &configs = matrix.configs();
    const std::size_t cells = workloads.size() * configs.size();

    driver::SweepOptions opts;
    opts.resultCacheDir = uniqueDir("replay-unusable");
    const std::string cold_doc = driver::replayJsonString(
        driver::SweepEngine(opts).runReplay(workloads, configs));
    cache::ResultCache(opts.resultCacheDir)
        .store(cache::replayKeyText(
                   workloads[1], cache::workloadIdentity(workloads[1], ""),
                   configs[2]),
               "[1,2]");

    ::testing::internal::CaptureStderr();
    driver::SweepEngine engine(opts);
    const auto results = engine.runReplay(workloads, configs);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("result-cache entry unusable, re-evaluating " +
                       workloads[1].binaryKey() + "/" + configs[2].name +
                       ": "),
              std::string::npos)
        << err;
    EXPECT_EQ(driver::scrubHostMs(driver::replayJsonString(results)),
              driver::scrubHostMs(cold_doc));
    EXPECT_EQ(engine.resultCacheUse().hits, cells);
    EXPECT_EQ(engine.resultCacheUse().simulated, 1u);
    EXPECT_EQ(engine.resultCacheUse().stores, 1u);
}

// ---------------------------------------------------------------------
// Run-object parser (the cache's read side)
// ---------------------------------------------------------------------

TEST(ResultCacheParse, RunJsonRoundTripsByteIdentically)
{
    const std::vector<driver::RunSpec> specs = {baseSpec()};
    driver::SweepEngine engine{driver::SweepOptions{}};
    const auto results = engine.run(specs);

    std::ostringstream os;
    {
        driver::JsonWriter w(os);
        driver::writeRunJson(w, specs[0], results[0]);
    }
    const std::string bytes = os.str();
    const sim::RunResult parsed = driver::parseRunJson(bytes);

    std::ostringstream os2;
    {
        driver::JsonWriter w(os2);
        driver::writeRunJson(w, specs[0], parsed);
    }
    EXPECT_EQ(os2.str(), bytes);

    EXPECT_THROW(driver::parseRunJson(std::string("{\"benchmark\":1}")),
                 jsonmin::JsonParseError);
    EXPECT_THROW(driver::parseRunJson(std::string("nonsense")),
                 jsonmin::JsonParseError);

    // A counter must be an integer std::uint64_t can hold; casting any
    // other double to it is undefined.
    const std::string cycles =
        "\"cycles\":" + std::to_string(results[0].stats.cycles);
    ASSERT_NE(bytes.find(cycles), std::string::npos);
    for (const char *bad : {"-1", "1e300", "1.5", "inf"}) {
        std::string damaged = bytes;
        damaged.replace(damaged.find(cycles), cycles.size(),
                        std::string("\"cycles\":") + bad);
        EXPECT_THROW(driver::parseRunJson(damaged),
                     jsonmin::JsonParseError)
            << bad;
    }
}
