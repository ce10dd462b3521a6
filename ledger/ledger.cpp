/**
 * @file
 * The paper-sweep ledger harness: the repository's end-to-end and
 * per-layer benchmark (run.py in this directory drives it; README.md
 * explains the workloads and metrics).
 *
 * Every subcommand builds one named workload from the suite and prints
 * one JSON object as its last stdout line:
 *
 *   prepare      untimed set-up of fig6a_smarts_warm: record its trace
 *                artifacts with the engine and fill its checkpoint
 *                directory
 *   setup        time materialising the workload's distinct programs
 *                through the calls the engine's build phase makes
 *   sweep        one untraced closed-loop sweep through
 *                driver::SweepEngine, sink included
 *   traced       the same sweep composed serially from the layers'
 *                public calls, each call timed
 *   fingerprint  compiler and flags this binary was built with
 *
 * Both sweep forms check every cell and print a digest of every
 * simulated statistic (host-time fields excluded): a performance-only
 * change must leave it unchanged, and the traced composition must
 * reproduce the engine's digest exactly.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "cache/result_cache.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "driver/grids.hh"
#include "driver/replay_sink.hh"
#include "driver/result_sink.hh"
#include "driver/run_matrix.hh"
#include "driver/sweep_engine.hh"
#include "program/codegen.hh"
#include "program/ifconvert.hh"
#include "program/suite.hh"
#include "program/trace.hh"
#include "replay/predictor_replay.hh"
#include "sampling/window_checkpoint.hh"
#include "sim/simulator.hh"

namespace
{

using namespace pp;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Options and workloads
// ---------------------------------------------------------------------

struct Options
{
    std::string command;
    std::string workload;
    std::uint64_t seed = 0;   ///< 0 = the suite's own profile seeds
    bool mini = false;        ///< miniature windows (self-test)
    unsigned threads = 0;     ///< 0 = min(4, hardware threads)
    std::string work = ".";   ///< scratch directory of this run
};

/** Instruction windows of one scale. */
struct Scale
{
    std::uint64_t fullWarmup;      ///< fig5_full per-cell lead-in
    std::uint64_t fullMeasure;     ///< fig5_full measurement
    std::uint64_t warmup;          ///< replay and sampled lead-in
    std::uint64_t measure;         ///< replay measurement
    std::uint64_t sampledRegion;   ///< sampled measurement region
    std::uint64_t period;          ///< SamplingPolicy::smarts period
};

/**
 * Paper scale: the harnesses' default windows for replay, and the 3M
 * region the sampling contract is pinned at (12 smarts windows per
 * cell). fig5_full measures a quarter of the default window so that a
 * sweep takes seconds, not ten, and a run holds enough sweeps for a
 * steady median on a shared host.
 */
constexpr Scale kPaperScale{50000, 250000, 150000, 1000000, 3000000,
                            250000};

/** Miniature scale for the self-test: same shapes, 10 windows. */
constexpr Scale kMiniScale{2000, 10000, 2000, 10000, 200000, 20000};

struct Workload
{
    bool replay = false; ///< replay tier (else full or sampled runs)
    bool warm = false;   ///< replays traces, checkpoint + result caches
    std::vector<driver::RunSpec> specs;
    std::vector<replay::ReplayWorkloadSpec> replayWorkloads;
    std::vector<replay::ReplayConfig> configs;
};

/** Files of one run's scratch directory. */
struct Paths
{
    std::string traces;
    std::string ckpt;
    std::string rcache;
    std::string doc;
};

Paths
pathsOf(const Options &o)
{
    return {o.work + "/traces", o.work + "/ckpt", o.work + "/rcache",
            o.work + "/doc.json"};
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The 22-program suite, every profile re-seeded from @p seed (0 keeps
 * the suite's own seeds). The seed only changes which programs and
 * condition streams are generated; the profiles' shapes stay fixed.
 */
std::vector<program::BenchmarkProfile>
suite(std::uint64_t seed)
{
    std::vector<program::BenchmarkProfile> s = program::spec2000Suite();
    if (seed != 0) {
        for (auto &p : s)
            p.seed = splitmix64(p.seed ^ splitmix64(seed));
    }
    return s;
}

sim::SchemeConfig
schemeOf(core::PredictionScheme scheme)
{
    sim::SchemeConfig sc;
    sc.scheme = scheme;
    return sc;
}

/**
 * The 34-config ablation matrix of bench/bench_predictor_replay.cpp:
 * PVT size x organisation x confidence width, confidence extremes,
 * perceptron and PEP-PA geometries, idealised variants.
 */
void
addReplayConfigs(replay::ReplayMatrix &m)
{
    for (const std::uint32_t entries : {1848u, 3696u, 7392u}) {
        for (const bool split : {false, true}) {
            for (const unsigned w : {2u, 3u, 4u}) {
                sim::SchemeConfig sc =
                    schemeOf(core::PredictionScheme::PredicatePredictor);
                sc.predication =
                    core::PredicationModel::SelectivePrediction;
                sc.splitPvt = split;
                sc.confidenceBits = w;
                core::CoreConfig cc;
                cc.predicate.tableEntries = entries;
                m.addConfig("pvt" + std::to_string(entries) +
                                (split ? "/split" : "/dual") + "/c" +
                                std::to_string(w),
                            sc, cc);
            }
        }
    }
    for (const unsigned w : {1u, 5u}) {
        sim::SchemeConfig sc =
            schemeOf(core::PredictionScheme::PredicatePredictor);
        sc.predication = core::PredicationModel::SelectivePrediction;
        sc.confidenceBits = w;
        m.addConfig("pvt3696/dual/c" + std::to_string(w), sc);
    }
    for (const std::uint32_t entries : {1848u, 3696u, 7392u}) {
        for (const unsigned g : {20u, 30u}) {
            core::CoreConfig cc;
            cc.perceptron.tableEntries = entries;
            cc.perceptron.globalBits = g;
            m.addConfig("perc" + std::to_string(entries) + "/g" +
                            std::to_string(g),
                        schemeOf(core::PredictionScheme::Conventional), cc);
        }
    }
    for (const unsigned l : {6u, 14u}) {
        core::CoreConfig cc;
        cc.perceptron.localBits = l;
        m.addConfig("perc3696/g30/l" + std::to_string(l),
                    schemeOf(core::PredictionScheme::Conventional), cc);
    }
    for (const std::uint32_t lht : {2048u, 4096u}) {
        for (const unsigned pht : {17u, 19u}) {
            core::CoreConfig cc;
            cc.peppa.lhtEntries = lht;
            cc.peppa.phtBits = pht;
            m.addConfig("peppa/lht" + std::to_string(lht) + "/pht" +
                            std::to_string(pht),
                        schemeOf(core::PredictionScheme::PepPa), cc);
        }
    }
    sim::SchemeConfig hist =
        schemeOf(core::PredictionScheme::PredicatePredictor);
    hist.idealPerfectHistory = true;
    m.addConfig("pvt3696/dual/ideal-hist", hist);
    sim::SchemeConfig alias =
        schemeOf(core::PredictionScheme::PredicatePredictor);
    alias.idealNoAlias = true;
    m.addConfig("pvt3696/dual/ideal-alias", alias);
}

/** The Fig. 6a grid under smarts(), generated from the profiles. */
std::vector<driver::RunSpec>
fig6aSpecs(const Options &o, const Scale &sc)
{
    driver::RunMatrix m;
    m.benchmarks(suite(o.seed))
        .ifConvert(true)
        .window(sc.warmup, sc.sampledRegion);
    m.addScheme("pep-pa", schemeOf(core::PredictionScheme::PepPa));
    m.addScheme("conventional",
                schemeOf(core::PredictionScheme::Conventional));
    m.addScheme("predicate",
                schemeOf(core::PredictionScheme::PredicatePredictor));
    const sampling::SamplingPolicy policy =
        sampling::SamplingPolicy::smarts(sc.period);
    policy.validateForRegion(sc.sampledRegion);
    m.addSampling("smarts", policy);
    return m.specs();
}

Workload
makeWorkload(const Options &o)
{
    const Scale &sc = o.mini ? kMiniScale : kPaperScale;
    Workload w;
    if (o.workload == "fig5_full") {
        driver::RunMatrix m;
        m.benchmarks(suite(o.seed))
            .ifConvert(false)
            .window(sc.fullWarmup, sc.fullMeasure);
        for (const auto &s : driver::fig5Schemes())
            m.addScheme(s.name, s.scheme);
        w.specs = m.specs();
    } else if (o.workload == "fig6a_smarts" ||
               o.workload == "fig6a_smarts_warm") {
        w.specs = fig6aSpecs(o, sc);
        if (o.workload == "fig6a_smarts_warm") {
            w.warm = true;
            driver::applyTraceDir(w.specs, pathsOf(o).traces);
        }
    } else if (o.workload == "replay_ablation") {
        w.replay = true;
        replay::ReplayMatrix m;
        m.benchmarks(suite(o.seed))
            .ifConvert(true)
            .window(sc.warmup, sc.measure);
        addReplayConfigs(m);
        w.replayWorkloads = m.workloads();
        w.configs = m.configs();
    } else {
        fatal("unknown workload '" + o.workload +
              "' (known: fig5_full, fig6a_smarts, replay_ablation, "
              "fig6a_smarts_warm)");
    }
    return w;
}

/** Instructions the results stand for (warmup + measure per cell). */
std::uint64_t
simInsts(const Workload &w)
{
    std::uint64_t n = 0;
    for (const auto &s : w.specs)
        n += s.warmupInsts + s.measureInsts;
    for (const auto &r : w.replayWorkloads)
        n += (r.warmupInsts + r.measureInsts) * w.configs.size();
    return n;
}

// ---------------------------------------------------------------------
// Host measurement helpers
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process user + system CPU seconds (all threads). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
        1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Run @p f, adding its wall time to @p acc; returns f's result. */
template <typename F>
auto
timed(double &acc, F &&f) -> decltype(f())
{
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
        f();
        acc += secondsSince(t0);
    } else {
        auto r = f();
        acc += secondsSince(t0);
        return r;
    }
}

/** fn(0..n-1) on up to @p threads workers (first error rethrown). */
void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex err_mutex;
    std::exception_ptr first_error;
    auto worker = [&]() {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                return;
            }
        }
    };
    std::vector<std::thread> pool;
    const std::size_t spawn = std::min<std::size_t>(threads, n);
    for (std::size_t t = 0; t < spawn; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

double
fileMb(const std::string &path)
{
    return static_cast<double>(fs::file_size(path)) / (1024.0 * 1024.0);
}

void
freshDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

// ---------------------------------------------------------------------
// Correctness: per-cell invariants and the statistics digest
// ---------------------------------------------------------------------

/** Cells checked, cells failed, and what went wrong (first few). */
struct Verdict
{
    std::uint64_t cells = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    problem(const std::string &what)
    {
        if (problems.size() < 20)
            problems.push_back(what);
    }

    /** One cell; @p bad lists its broken invariants (empty = passes). */
    void
    cell(const std::string &label, const std::vector<const char *> &bad)
    {
        ++cells;
        if (bad.empty())
            return;
        ++failed;
        std::string what = label + ":";
        for (const char *b : bad)
            what += std::string(" ") + b;
        problem(what);
    }
};

void
checkRuns(const std::vector<driver::RunSpec> &specs,
          const std::vector<sim::RunResult> &results, Verdict &v)
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const driver::RunSpec &s = specs[i];
        const sim::RunResult &r = results[i];
        const unsigned width =
            sim::resolveConfig(s.scheme, s.config).commitWidth;
        std::vector<const char *> bad;
        if (!s.sampling.enabled()) {
            // The core stops at the end of the cycle that reaches its
            // target, so each boundary may overshoot by < commit width.
            const std::uint64_t total = s.warmupInsts + s.measureInsts;
            if (r.stats.committedInsts + width <= s.measureInsts ||
                r.stats.committedInsts >= s.measureInsts + width)
                bad.push_back("committed!=window");
            if (r.detailedInsts < total || r.detailedInsts >= total + width)
                bad.push_back("detailed!=warmup+measure");
        } else {
            if (!r.sampled)
                bad.push_back("not-sampled");
            if (r.measuredInsts < 8 * s.sampling.measureInsts)
                bad.push_back("windows<8");
            if (!std::isfinite(r.ipcErrorBound) || r.ipcErrorBound <= 0.0)
                bad.push_back("ci-not-finite");
        }
        if (!(r.ipc > 0.0 && r.ipc <= width))
            bad.push_back("ipc-out-of-range");
        if (r.stats.mispredictedCondBranches > r.stats.committedCondBranches)
            bad.push_back("mispredicted>branches");
        v.cell(s.label(), bad);
    }
}

void
checkReplay(const std::vector<replay::ReplayWorkloadResult> &results,
            Verdict &v)
{
    for (const auto &w : results) {
        for (const auto &c : w.configs) {
            const replay::ReplayStats &st = c.stats;
            std::vector<const char *> bad;
            if (st.condBranches != w.streamBranches)
                bad.push_back("branches!=stream");
            if (st.mispredicted > st.condBranches ||
                st.l1Mispredicted > st.condBranches ||
                st.shadowMispredicts > st.condBranches)
                bad.push_back("mispredicted>branches");
            if (st.mispredTaken + st.mispredNotTaken != st.mispredicted)
                bad.push_back("taken+not-taken!=mispredicted");
            if (st.brBranches + st.callBranches + st.retBranches !=
                    st.condBranches ||
                st.brMispredicted + st.callMispredicted +
                        st.retMispredicted != st.mispredicted)
                bad.push_back("class-breakdown");
            if (st.compares > w.streamCompares ||
                st.pd1Mispredicts > st.compares ||
                st.pd2Mispredicts > st.compares ||
                st.confidentPd1 > st.compares ||
                st.confidentPd1Wrong > st.confidentPd1)
                bad.push_back("compare-counters");
            v.cell(w.benchmark + "/" + c.name, bad);
        }
    }
}

/** Canonical text of every simulated statistic, hashed. */
class Digest
{
  public:
    Digest &
    add(const std::string &s)
    {
        text_ += s;
        text_ += ';';
        return *this;
    }

    Digest &add(std::uint64_t v) { return add(std::to_string(v)); }

    Digest &
    add(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return add(std::string(buf));
    }

    std::string hex() const { return hashHex(fnv1a(text_)); }

  private:
    std::string text_;
};

std::string
digestRuns(const std::vector<driver::RunSpec> &specs,
           const std::vector<sim::RunResult> &results)
{
    Digest d;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const sim::RunResult &r = results[i];
        d.add(specs[i].profile.name).add(specs[i].schemeName)
            .add(specs[i].samplingName)
            .add(std::uint64_t{specs[i].ifConvert});
        for (const auto &f : core::kCoreStatsFields)
            d.add(r.stats.*f.member);
        d.add(r.mispredRatePct).add(r.accuracyPct).add(r.ipc)
            .add(r.shadowMispredRatePct).add(r.earlyResolvedPct)
            .add(std::uint64_t{r.sampled}).add(r.measuredInsts)
            .add(r.detailedInsts).add(r.ipcErrorBound);
    }
    return d.hex();
}

std::string
digestReplay(const std::vector<replay::ReplayWorkloadResult> &results)
{
    Digest d;
    for (const auto &w : results) {
        d.add(w.benchmark).add(std::uint64_t{w.ifConvert})
            .add(w.warmupInsts).add(w.measureInsts).add(w.streamEvents)
            .add(w.streamBranches).add(w.streamCompares);
        for (const auto &c : w.configs) {
            const replay::ReplayStats &s = c.stats;
            d.add(c.name).add(c.storageBytes);
            for (const std::uint64_t v :
                 {s.condBranches, s.mispredicted, s.l1Mispredicted,
                  s.mispredTaken, s.mispredNotTaken, s.brBranches,
                  s.brMispredicted, s.callBranches, s.callMispredicted,
                  s.retBranches, s.retMispredicted, s.compares,
                  s.pd1Mispredicts, s.pd2Mispredicts, s.confidentPd1,
                  s.confidentPd1Wrong, s.shadowMispredicts})
                d.add(v);
        }
    }
    return d.hex();
}

/** Check every cell of a sweep's results; returns their digest. */
std::string
verify(const Workload &w, const std::vector<sim::RunResult> &results,
       const std::vector<replay::ReplayWorkloadResult> &replayed,
       Verdict &v)
{
    if (w.replay) {
        checkReplay(replayed, v);
        return digestReplay(replayed);
    }
    checkRuns(w.specs, results, v);
    return digestRuns(w.specs, results);
}

/** Mean reported 95% IPC half-width (%) over the sampled cells. */
double
meanIpcCi(const std::vector<sim::RunResult> &results)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &r : results) {
        if (r.sampled) {
            sum += r.ipcErrorBound;
            ++n;
        }
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/** The last stdout line: one JSON object. */
class Report
{
  public:
    Report() { w_.beginObject(); }

    template <typename T>
    Report &
    field(const std::string &k, const T &v)
    {
        w_.field(k, v);
        return *this;
    }

    Report &
    array(const std::string &k, const std::vector<double> &xs)
    {
        w_.key(k).beginArray();
        for (const double x : xs)
            w_.value(x);
        w_.endArray();
        return *this;
    }

    Report &
    verdict(const Verdict &v, const std::string &digest)
    {
        w_.field("cells", v.cells).field("failed", v.failed);
        w_.field("digest", digest);
        w_.key("problems").beginArray();
        for (const auto &p : v.problems)
            w_.value(p);
        w_.endArray();
        return *this;
    }

    void
    print()
    {
        w_.endObject();
        std::cout << os_.str() << "\n";
    }

  private:
    std::ostringstream os_;
    driver::JsonWriter w_{os_};
};

// ---------------------------------------------------------------------
// prepare / setup / sweep
// ---------------------------------------------------------------------

driver::SweepOptions
engineOptions(const Options &o, const Workload &w)
{
    driver::SweepOptions so;
    so.threads = o.threads;
    if (w.warm) {
        so.checkpointDir = pathsOf(o).ckpt;
        so.resultCacheDir = pathsOf(o).rcache;
    }
    return so;
}

/**
 * Untimed set-up of fig6a_smarts_warm: one cold generated sweep in the
 * engine's record mode writes the trace artifacts (and yields the cold
 * digest the warm sweep must reproduce), then one pass over the traced
 * specs of a single scheme column fills the checkpoint directory with
 * every workload's set.
 */
void
cmdPrepare(const Options &o)
{
    const Workload warm = makeWorkload(o);
    if (!warm.warm)
        fatal("prepare applies to fig6a_smarts_warm only");
    const Paths p = pathsOf(o);
    freshDir(p.traces);
    freshDir(p.ckpt);

    Options cold_opts = o;
    cold_opts.workload = "fig6a_smarts";
    const Workload cold = makeWorkload(cold_opts);
    driver::SweepOptions rec;
    rec.threads = o.threads;
    rec.recordTraceDir = p.traces;
    const auto cold_results = driver::SweepEngine(rec).run(cold.specs);
    Verdict v;
    checkRuns(cold.specs, cold_results, v);

    std::vector<driver::RunSpec> fill;
    for (const auto &s : warm.specs) {
        if (s.schemeName == warm.specs.front().schemeName)
            fill.push_back(s);
    }
    driver::SweepOptions ck;
    ck.threads = o.threads;
    ck.checkpointDir = p.ckpt;
    (void)driver::SweepEngine(ck).run(fill);

    Report().verdict(v, digestRuns(cold.specs, cold_results)).print();
}

/**
 * setup_s: materialise every distinct program the way the engine's
 * build phase does — codegen + if-conversion + predecode, or trace
 * load + validate + predecode — across the same worker pool.
 */
void
cmdSetup(const Options &o)
{
    const Workload w = makeWorkload(o);
    struct Build
    {
        const program::BenchmarkProfile *profile;
        bool ifConvert;
        std::string tracePath;
        std::uint64_t window;
    };
    std::vector<Build> builds;
    std::unordered_map<std::string, bool> seen;
    auto add = [&](const auto &s) {
        if (seen.emplace(s.buildKey(), true).second) {
            builds.push_back({&s.profile, s.ifConvert, s.tracePath,
                              s.warmupInsts + s.measureInsts});
        }
    };
    std::for_each(w.specs.begin(), w.specs.end(), add);
    std::for_each(w.replayWorkloads.begin(), w.replayWorkloads.end(), add);

    // At least 5 materialisations and one second of them, so the
    // millisecond-scale non-if-converted set-up still yields a steady
    // median.
    std::vector<double> times;
    const auto start = Clock::now();
    while (times.size() < 5 || secondsSince(start) < 1.0) {
        const auto t0 = Clock::now();
        parallelFor(builds.size(), o.threads, [&](std::size_t i) {
            const Build &b = builds[i];
            sim::ProgramRef binary;
            if (!b.tracePath.empty()) {
                auto trace = std::make_shared<const program::TraceFile>(
                    program::TraceFile::loadOrThrow(b.tracePath));
                trace->validate(b.profile->name, b.profile->seed,
                                b.ifConvert,
                                b.window + program::kTraceRecordSlack);
                binary = sim::traceBinary(trace);
            } else {
                binary = sim::buildBinaryShared(*b.profile, b.ifConvert);
            }
            (void)sim::decodeShared(binary);
        });
        times.push_back(secondsSince(t0));
    }
    Report()
        .field("programs", static_cast<std::uint64_t>(builds.size()))
        .array("setup_s", times)
        .print();
}

/** One untraced closed-loop sweep through the engine, sink included. */
void
cmdSweep(const Options &o)
{
    const Workload w = makeWorkload(o);
    const Paths p = pathsOf(o);
    if (w.warm)
        freshDir(p.rcache); // every run starts with an empty cache

    driver::SweepEngine engine(engineOptions(o, w));
    std::vector<sim::RunResult> results;
    std::vector<replay::ReplayWorkloadResult> replayed;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    if (w.replay) {
        replayed = engine.runReplay(w.replayWorkloads, w.configs);
        driver::writeReplayJsonFile(p.doc, replayed);
    } else {
        results = engine.run(w.specs);
        driver::JsonSink{engine.counters()}.writeFile(p.doc, w.specs,
                                                      results);
    }
    const double wall = secondsSince(t0);
    const double cpu = cpuSeconds() - cpu0;

    Verdict v;
    const std::string digest = verify(w, results, replayed, v);
    if (w.warm) {
        // The workload's premise: the artifact layers read, the result
        // cache misses every lookup and stores every cell.
        const driver::ResultCacheUse &use = engine.resultCacheUse();
        if (use.hits != 0 || use.stores != w.specs.size())
            v.problem("result cache did not miss and store every cell");
    }
    Report()
        .field("wall_s", wall)
        .field("cpu_s", cpu)
        .field("peak_rss_mb", peakRssMb())
        .field("sim_insts", simInsts(w))
        .field("threads", static_cast<std::uint64_t>(engine.threadsUsed()))
        .field("ipc_ci_pct", meanIpcCi(results))
        .verdict(v, digest)
        .print();
}

// ---------------------------------------------------------------------
// traced: the serial composition, every public call timed
// ---------------------------------------------------------------------

/** Seconds spent inside each layer's public calls. */
struct LayerTimes
{
    double codegen = 0, ifconvert = 0, decode = 0, traceLoad = 0;
    double coreRun = 0;
    double ckptBuild = 0, ckptLoad = 0, window = 0, merge = 0;
    double stream = 0, walk = 0;
    double lookup = 0, store = 0;
    double sink = 0;

    double
    sum() const
    {
        return codegen + ifconvert + decode + traceLoad + coreRun +
            ckptBuild + ckptLoad + window + merge + stream + walk +
            lookup + store + sink;
    }
};

/** Counts recorded at the same boundaries. */
struct LayerCounts
{
    std::uint64_t binaries = 0;
    double traceMb = 0;
    std::uint64_t cycles = 0, coreInsts = 0;
    std::uint64_t ffInsts = 0;
    double ckptDiskMb = 0, ckptMemMb = 0;
    std::uint64_t windows = 0, windowInsts = 0;
    std::uint64_t measured = 0, region = 0;
    std::uint64_t events = 0, configEvals = 0, eventConfigs = 0;
    std::uint64_t entries = 0, corrupt = 0;
    double docKb = 0;
};

struct Built
{
    sim::ProgramRef binary;
    sim::DecodedRef decoded;
    sim::TraceRef trace;
};

/**
 * sim::buildBinary split at its layer boundaries (its if-conversion
 * options restated; any drift changes the digest), or a trace load.
 */
Built
buildTraced(const program::BenchmarkProfile &p, bool if_convert,
            const std::string &trace_path, LayerTimes &t, LayerCounts &c)
{
    Built b;
    if (!trace_path.empty()) {
        b.trace = timed(t.traceLoad, [&] {
            return std::make_shared<const program::TraceFile>(
                program::TraceFile::loadOrThrow(trace_path));
        });
        b.binary = sim::traceBinary(b.trace);
        c.traceMb += fileMb(trace_path);
    } else {
        program::AsmProgram code = timed(t.codegen, [&] {
            return program::CodeGenerator(p).generate();
        });
        if (if_convert) {
            program::IfConvertOptions opts;
            opts.mispredThreshold = p.ifcMispredThreshold;
            opts.maxBlockLen = p.ifcMaxBlockLen;
            opts.profileSeed = p.seed ^ 0x5eedf00dull;
            code = timed(t.ifconvert,
                         [&] { return program::ifConvert(code, opts); });
        }
        b.binary = timed(t.codegen, [&] {
            return std::make_shared<const program::Program>(code.assemble(
                p.dataBytes, if_convert ? p.name + ".ifc" : p.name));
        });
    }
    b.decoded = timed(t.decode, [&] { return sim::decodeShared(b.binary); });
    ++c.binaries;
    return b;
}

/** Bytes a checkpoint set holds in memory. */
double
setMb(const sampling::WindowCheckpointSet &set)
{
    auto bytes = [](const auto &v) {
        return v.size() * sizeof(v[0]);
    };
    std::size_t n = 0;
    for (const auto &w : set.windows) {
        n += sizeof(w) + bytes(w.warmEvents) + bytes(w.arch.intRegs) +
            bytes(w.arch.fpRegs) + bytes(w.arch.predRegs) +
            bytes(w.arch.dataMem) + bytes(w.arch.callStack) +
            bytes(w.arch.conds.ids) + bytes(w.arch.conds.pos) +
            bytes(w.arch.conds.last);
    }
    return static_cast<double>(n) / (1024.0 * 1024.0);
}

/**
 * The engine's checkpoint-set key (sweep_engine.cc: workload, policy
 * with horizon, region); its on-disk file is "<fnv1a hex>.ppckpt". If
 * the engine's key ever changes, the warm traced run finds no file and
 * builds instead, which the self-test reports as a non-zero
 * sampling.ckpt_build_s.
 */
std::string
checkpointKey(const driver::RunSpec &s)
{
    return s.buildKey() + "|" + s.sampling.label() + "h" +
        std::to_string(s.sampling.warmingHorizon) + "|" +
        std::to_string(s.warmupInsts) + ":" +
        std::to_string(s.measureInsts);
}

/** Serial run(): build, probe, checkpoints, runs, stores, sink. */
std::vector<sim::RunResult>
traceRuns(const Options &o, const Workload &w, LayerTimes &t,
          LayerCounts &c)
{
    const Paths p = pathsOf(o);
    const std::vector<driver::RunSpec> &specs = w.specs;
    const std::size_t n = specs.size();

    // Phase 1: one build per distinct workload, first-appearance order.
    std::vector<Built> builds;
    std::vector<std::size_t> spec_build(n);
    std::unordered_map<std::string, std::size_t> key_to_build;
    for (std::size_t i = 0; i < n; ++i) {
        const driver::RunSpec &s = specs[i];
        auto it = key_to_build.find(s.buildKey());
        if (it == key_to_build.end()) {
            it = key_to_build.emplace(s.buildKey(), builds.size()).first;
            builds.push_back(
                buildTraced(s.profile, s.ifConvert, s.tracePath, t, c));
        }
        spec_build[i] = it->second;
        if (!s.tracePath.empty()) {
            timed(t.traceLoad, [&] {
                builds[it->second].trace->validate(
                    s.profile.name, s.profile.seed, s.ifConvert,
                    s.warmupInsts + s.measureInsts +
                        program::kTraceRecordSlack);
            });
        }
    }

    // Result-cache probe of every cell (warm workload only).
    std::vector<sim::RunResult> results(n);
    std::vector<std::string> keys(n);
    std::vector<char> hit(n, 0);
    std::unique_ptr<cache::ResultCache> rcache;
    if (w.warm) {
        rcache = timed(t.lookup, [&] {
            return std::make_unique<cache::ResultCache>(p.rcache);
        });
        for (std::size_t i = 0; i < n; ++i) {
            timed(t.lookup, [&] {
                const sim::TraceRef &tr = builds[spec_build[i]].trace;
                keys[i] = cache::runKeyText(
                    specs[i], cache::workloadIdentity(
                                  specs[i], tr ? tr->contentHashHex()
                                               : std::string()));
                if (const auto payload = rcache->lookup(keys[i])) {
                    results[i] = driver::parseRunJson(*payload);
                    hit[i] = 1;
                }
            });
        }
    }

    // Phase 1.5: one checkpoint set per (workload, region, policy).
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<sampling::WindowCheckpointSet> sets;
    std::vector<std::size_t> spec_set(n, kNone);
    std::unordered_map<std::string, std::size_t> key_to_set;
    for (std::size_t i = 0; i < n; ++i) {
        const driver::RunSpec &s = specs[i];
        if (hit[i] || !sampling::checkpointEligible(s.sampling))
            continue;
        const std::string key = checkpointKey(s);
        auto it = key_to_set.find(key);
        if (it == key_to_set.end()) {
            it = key_to_set.emplace(key, sets.size()).first;
            const Built &b = builds[spec_build[i]];
            const std::string path =
                p.ckpt + "/" + hashHex(fnv1a(key)) + ".ppckpt";
            if (w.warm && fs::exists(path)) {
                sets.push_back(timed(t.ckptLoad, [&] {
                    return sampling::WindowCheckpointSet::loadOrThrow(path);
                }));
                c.ckptDiskMb += fileMb(path);
            } else {
                sets.push_back(timed(t.ckptBuild, [&] {
                    return sampling::buildWindowCheckpoints(
                        *b.binary, s.profile, s.warmupInsts,
                        s.measureInsts, s.sampling, b.decoded.get(),
                        b.trace.get());
                }));
                c.ffInsts += sets.back().builderInsts;
                if (w.warm)
                    timed(t.ckptBuild, [&] { sets.back().store(path); });
            }
            c.ckptMemMb += setMb(sets.back());
        }
        spec_set[i] = it->second;
    }

    // Phase 2: whole full runs on the core; sampled cells window by
    // window, merged in window order.
    for (std::size_t i = 0; i < n; ++i) {
        if (hit[i])
            continue;
        const driver::RunSpec &s = specs[i];
        const Built &b = builds[spec_build[i]];
        if (spec_set[i] != kNone) {
            const sampling::WindowCheckpointSet &set = sets[spec_set[i]];
            const core::CoreConfig cfg =
                sim::resolveConfig(s.scheme, s.config);
            std::vector<sampling::WindowRunResult> runs;
            for (const auto &win : set.windows) {
                runs.push_back(timed(t.window, [&] {
                    return sampling::runWindow(
                        win, *b.binary, cfg, sim::coreSeed(s.profile),
                        b.decoded.get(), b.trace.get());
                }));
                ++c.windows;
                c.windowInsts += runs.back().coreCommitted;
            }
            results[i] = timed(t.merge, [&] {
                return sampling::mergeWindowRuns(set, runs, s.profile.name,
                                                 s.measureInsts).result;
            });
            c.measured += results[i].measuredInsts;
            c.region += s.measureInsts;
        } else {
            if (s.sampling.enabled())
                fatal("ledger workloads sample on the checkpoint tier only");
            results[i] = timed(t.coreRun, [&] {
                return sim::run(*b.binary, s.profile, s.scheme, s.config,
                                s.warmupInsts, s.measureInsts,
                                b.decoded.get(), b.trace.get());
            });
            c.cycles += results[i].stats.cycles;
            c.coreInsts += results[i].detailedInsts;
        }
        if (b.trace)
            results[i].traceHash = b.trace->contentHashHex();
    }

    // Store every executed cell's emitter bytes, then the sink.
    if (rcache) {
        for (std::size_t i = 0; i < n; ++i) {
            if (hit[i])
                continue;
            timed(t.store, [&] {
                std::ostringstream os;
                driver::JsonWriter jw(os);
                driver::writeRunJson(jw, specs[i], results[i]);
                rcache->store(keys[i], os.str());
            });
        }
        c.entries = rcache->stats().stores;
        c.corrupt = rcache->stats().corrupt;
    }
    timed(t.sink, [&] {
        driver::JsonSink{driver::sweepCountersFor(specs, false)}.writeFile(
            p.doc, specs, results);
    });
    return results;
}

/** Serial runReplay(): build, streams, config batches, sink. */
std::vector<replay::ReplayWorkloadResult>
traceReplay(const Options &o, const Workload &w, LayerTimes &t,
            LayerCounts &c)
{
    // The engine's config batch (kReplayConfigBatch in sweep_engine.cc):
    // each batch is one pass over the shared stream.
    constexpr std::size_t kBatch = 8;
    const auto &wls = w.replayWorkloads;
    std::vector<Built> builds;
    std::vector<std::size_t> wl_build(wls.size());
    std::unordered_map<std::string, std::size_t> key_to_build;
    for (std::size_t i = 0; i < wls.size(); ++i) {
        auto it = key_to_build.find(wls[i].buildKey());
        if (it == key_to_build.end()) {
            it = key_to_build.emplace(wls[i].buildKey(), builds.size())
                     .first;
            builds.push_back(buildTraced(wls[i].profile, wls[i].ifConvert,
                                         wls[i].tracePath, t, c));
        }
        wl_build[i] = it->second;
    }

    std::vector<replay::ReplayStream> streams(wls.size());
    for (std::size_t i = 0; i < wls.size(); ++i) {
        const Built &b = builds[wl_build[i]];
        streams[i] = timed(t.stream, [&] {
            return replay::extractStream(*b.binary, wls[i].profile,
                                         wls[i].warmupInsts,
                                         wls[i].measureInsts,
                                         b.decoded.get(), b.trace.get());
        });
        c.events += streams[i].events();
    }

    std::vector<replay::ReplayWorkloadResult> results(wls.size());
    for (std::size_t i = 0; i < wls.size(); ++i) {
        replay::ReplayWorkloadResult &r = results[i];
        r.benchmark = wls[i].profile.name;
        r.ifConvert = wls[i].ifConvert;
        r.warmupInsts = wls[i].warmupInsts;
        r.measureInsts = wls[i].measureInsts;
        r.streamEvents = streams[i].events();
        r.streamBranches = streams[i].measureBranches;
        r.streamCompares = streams[i].measureCompares;
        r.configs.resize(w.configs.size());
        for (std::size_t from = 0; from < w.configs.size(); from += kBatch) {
            const std::size_t to =
                std::min(from + kBatch, w.configs.size());
            timed(t.walk, [&] {
                std::vector<replay::ReplayCell> cells;
                for (std::size_t k = from; k < to; ++k)
                    cells.emplace_back(w.configs[k]);
                replay::PredictorReplay pass(*builds[wl_build[i]].binary,
                                             streams[i]);
                pass.run(cells);
                for (std::size_t k = from; k < to; ++k) {
                    replay::ReplayCell &cell = cells[k - from];
                    r.configs[k].name = cell.name();
                    r.configs[k].storageBytes = cell.storageBytes();
                    r.configs[k].stats = cell.stats();
                }
            });
            c.configEvals += to - from;
            c.eventConfigs += streams[i].events() * (to - from);
        }
    }
    timed(t.sink, [&] {
        driver::writeReplayJsonFile(pathsOf(o).doc, results);
    });
    return results;
}

void
cmdTraced(const Options &o)
{
    const Workload w = makeWorkload(o);
    if (w.warm)
        freshDir(pathsOf(o).rcache);
    LayerTimes t;
    LayerCounts c;
    std::vector<sim::RunResult> results;
    std::vector<replay::ReplayWorkloadResult> replayed;
    const auto t0 = Clock::now();
    if (w.replay)
        replayed = traceReplay(o, w, t, c);
    else
        results = traceRuns(o, w, t, c);
    const double wall = secondsSince(t0);
    Verdict v;
    const std::string digest = verify(w, results, replayed, v);
    c.docKb = static_cast<double>(fs::file_size(pathsOf(o).doc)) / 1024.0;

    auto per = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double layer_sum = t.sum();
    Report()
        .field("traced_wall_s", wall)
        .field("layer_sum_s", layer_sum)
        .field("program.codegen_s", t.codegen)
        .field("program.ifconvert_s", t.ifconvert)
        .field("program.decode_s", t.decode)
        .field("program.binaries", c.binaries)
        .field("program.trace_load_s", t.traceLoad)
        .field("program.trace_mb", c.traceMb)
        .field("core.run_s", t.coreRun)
        .field("core.kips", per(static_cast<double>(c.coreInsts),
                                t.coreRun * 1e3))
        .field("core.host_ns_per_cycle",
               per(t.coreRun * 1e9, static_cast<double>(c.cycles)))
        .field("core.cycles", c.cycles)
        .field("core.insts", c.coreInsts)
        .field("sampling.ckpt_build_s", t.ckptBuild)
        .field("sampling.ff_insts", c.ffInsts)
        .field("sampling.ckpt_load_s", t.ckptLoad)
        .field("sampling.ckpt_disk_mb", c.ckptDiskMb)
        .field("sampling.ckpt_mem_mb", c.ckptMemMb)
        .field("sampling.window_s", t.window)
        .field("sampling.window_kips",
               per(static_cast<double>(c.windowInsts), t.window * 1e3))
        .field("sampling.windows", c.windows)
        .field("sampling.measured_frac",
               per(static_cast<double>(c.measured),
                   static_cast<double>(c.region)))
        .field("sampling.merge_s", t.merge)
        .field("sampling.ipc_ci_pct", meanIpcCi(results))
        .field("replay.stream_s", t.stream)
        .field("replay.events", c.events)
        .field("replay.walk_s", t.walk)
        .field("replay.ns_per_event_config",
               per(t.walk * 1e9, static_cast<double>(c.eventConfigs)))
        .field("replay.config_evals", c.configEvals)
        .field("cache.lookup_s", t.lookup)
        .field("cache.store_s", t.store)
        .field("cache.entries", c.entries)
        .field("cache.corrupt", c.corrupt)
        .field("driver.sink_s", t.sink)
        .field("driver.doc_kb", c.docKb)
        .field("trace.wall_s", wall)
        .field("trace.coverage", per(layer_sum, wall))
        .field("sim_insts", simInsts(w))
        .verdict(v, digest)
        .print();
}

void
cmdFingerprint()
{
    Report()
        .field("compiler", LEDGER_COMPILER)
        .field("build_type", LEDGER_BUILD_TYPE)
        .field("cxx_flags", LEDGER_CXX_FLAGS)
        .print();
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "%s\nusage: ledger prepare|setup|sweep|traced|fingerprint"
                 " --workload NAME [--seed N] [--scale paper|mini]"
                 " [--threads N] [--work DIR]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing subcommand");
    Options o;
    o.command = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        char *end = nullptr;
        const unsigned long long num = std::strtoull(value.c_str(), &end, 10);
        const bool numeric = !value.empty() && *end == '\0';
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--work") {
            o.work = value;
        } else if (flag == "--scale" && (value == "paper" || value == "mini")) {
            o.mini = value == "mini";
        } else if (flag == "--seed" && numeric) {
            o.seed = num;
        } else if (flag == "--threads" && numeric) {
            o.threads = static_cast<unsigned>(num);
        } else {
            usage("bad argument: " + flag + " " + value);
        }
    }
    if (o.threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        o.threads = std::max(1u, std::min(4u, hw));
    }
    if (o.workload.empty() && o.command != "fingerprint")
        usage("missing --workload");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    if (o.command == "prepare")
        cmdPrepare(o);
    else if (o.command == "setup")
        cmdSetup(o);
    else if (o.command == "sweep")
        cmdSweep(o);
    else if (o.command == "traced")
        cmdTraced(o);
    else if (o.command == "fingerprint")
        cmdFingerprint();
    else
        usage("unknown subcommand: " + o.command);
    return 0;
}
