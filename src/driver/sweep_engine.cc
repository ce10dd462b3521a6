#include "driver/sweep_engine.hh"

#include "cache/result_cache.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "driver/replay_sink.hh"
#include "driver/result_sink.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"
#include "program/trace.hh"
#include "sampling/sampled_simulator.hh"
#include "sampling/window_checkpoint.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <ctime>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>

namespace pp
{
namespace driver
{

namespace
{

/**
 * Run item(0..n-1) in order, and every job those items return, on up to
 * @p threads workers. A worker runs a queued job (first queued, first
 * run) whenever one is ready and starts the next item only when none
 * is, so the jobs of one item drain before later items pile up theirs.
 * A worker finding neither waits while another still runs an item (its
 * jobs are yet to come) and leaves once none does. The first exception
 * stops every worker from taking more work and is rethrown on the
 * calling thread after all workers join.
 */
template <typename Job>
void
streamFor(std::size_t n, unsigned threads,
          const std::function<std::vector<Job>(std::size_t)> &item,
          const std::function<void(const Job &)> &job)
{
    if (n == 0)
        return;
    std::mutex mutex;
    std::condition_variable wake;
    std::deque<Job> ready;
    std::size_t next = 0;
    unsigned starting = 0; ///< items running, their jobs not yet queued
    std::exception_ptr first_error;

    auto worker = [&]() {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            wake.wait(lock, [&] {
                return first_error || !ready.empty() || next < n ||
                       starting == 0;
            });
            if (first_error)
                return;
            try {
                if (!ready.empty()) {
                    const Job j = std::move(ready.front());
                    ready.pop_front();
                    lock.unlock();
                    job(j);
                    lock.lock();
                } else if (next < n) {
                    const std::size_t i = next++;
                    ++starting;
                    lock.unlock();
                    std::vector<Job> jobs = item(i);
                    lock.lock();
                    --starting;
                    for (Job &j : jobs)
                        ready.push_back(std::move(j));
                    wake.notify_all();
                } else {
                    return;
                }
            } catch (...) {
                if (!lock.owns_lock())
                    lock.lock();
                if (!first_error)
                    first_error = std::current_exception();
                wake.notify_all();
                return;
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (auto &th : pool)
            th.join();
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

/**
 * Run fn(0..n-1) on up to @p threads workers: streamFor() over items
 * that queue no jobs, so no more workers than items.
 */
void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    streamFor<std::size_t>(
        n, static_cast<unsigned>(std::min<std::size_t>(threads, n)),
        [&](std::size_t i) {
            fn(i);
            return std::vector<std::size_t>{};
        },
        [](const std::size_t &) {});
}

unsigned
resolveThreads(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/** Create @p dir and its parents; fatal (with the cause) on failure. */
void
makeDirs(const std::string &dir, const char *what)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        fatal("cannot create " + std::string(what) + " directory " + dir +
              ": " + ec.message());
    }
}

/**
 * Cache key of the window-checkpoint set a spec needs: the workload
 * plus everything the set depends on — region and full policy
 * (label() omits the warming horizon, so it is appended explicitly).
 * Scheme and core config are deliberately absent: that is the sharing.
 */
std::string
checkpointKey(const RunSpec &s)
{
    return s.buildKey() + "|" + s.sampling.label() + "h" +
           std::to_string(s.sampling.warmingHorizon) + "|" +
           std::to_string(s.warmupInsts) + ":" +
           std::to_string(s.measureInsts);
}

/**
 * One materialized workload: its binary (generated, or embedded in its
 * trace artifact), the binary's predecode and, when loaded or
 * recorded, the trace, shared immutably by every run or replay batch
 * of the workload.
 */
struct Build
{
    const sim::Workload *workload; ///< first workload needing it
    sim::ProgramRef binary;
    sim::DecodedRef decoded;
    sim::TraceRef trace;           ///< loaded (replay) or recorded
    double hostMs = 0.0;           ///< wall time of the build job

    /** The trace runs replay: the loaded one, never a recording. */
    const program::TraceFile *
    replayed() const
    {
        return workload->tracePath.empty() ? nullptr : trace.get();
    }

    /** Content hash of the attached trace; empty without one. */
    std::string
    traceHash() const
    {
        return trace != nullptr ? trace->contentHashHex() : std::string();
    }
};

/** The distinct workloads of a sweep and which one each input uses. */
struct BuildSet
{
    std::vector<Build> jobs;
    std::vector<std::size_t> index; ///< per input workload: its job

    const Build &of(std::size_t workload) const
    { return jobs[index[workload]]; }
};

/**
 * Phase 1 of both tiers: materialize each distinct workload once —
 * generate the binary (or load its trace artifact), predecode it, and
 * in record mode capture + store its trace — all under one cache key
 * (sim::Workload::buildKey()), shared immutably by every consumer. The
 * job list is derived from @p workloads in order, so the cache layout
 * is deterministic; the jobs themselves parallelize. Every replaying
 * workload is then validated against its artifact.
 */
template <typename W>
BuildSet
buildWorkloads(const std::vector<W> &workloads, const SweepOptions &opts,
               unsigned threads)
{
    const bool record = !opts.recordTraceDir.empty();
    if (record)
        makeDirs(opts.recordTraceDir, "trace");

    // Recording horizon: one artifact per binary must serve every cell
    // of the sweep, so cover its largest run window plus the
    // oracle-lookahead slack.
    std::uint64_t record_insts = 0;
    for (const sim::Workload &w : workloads)
        record_insts = std::max(record_insts, w.warmupInsts + w.measureInsts);
    record_insts += program::kTraceRecordSlack;

    BuildSet set;
    set.index.resize(workloads.size());
    std::unordered_map<std::string, std::size_t> key_to_job;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const auto [it, fresh] =
            key_to_job.emplace(workloads[i].buildKey(), set.jobs.size());
        if (fresh)
            set.jobs.push_back(Build{&workloads[i], nullptr, nullptr,
                                     nullptr, 0.0});
        set.index[i] = it->second;
    }

    // A trace is named by binaryKey(), which same-named profiles share
    // (a re-seeded suite, say), while each of their builds records its
    // own: refuse to write two into one file before building either.
    auto record_path = [&](const sim::Workload &w) {
        return opts.recordTraceDir + "/" + w.binaryKey() + ".pptrace";
    };
    std::unordered_map<std::string, const sim::Workload *> recorders;
    for (const Build &b : set.jobs) {
        if (!record || !b.workload->tracePath.empty())
            continue;
        const std::string path = record_path(*b.workload);
        const auto [it, fresh] = recorders.emplace(path, b.workload);
        if (!fresh) {
            fatal("cannot record workloads '" + it->second->buildKey() +
                  "' and '" + b.workload->buildKey() +
                  "' to one trace " + path);
        }
    }

    obs::Counter &m_builds = obs::metrics().counter("sweep.binaries_built");
    obs::Histogram &m_build_ms =
        obs::metrics().histogram("sweep.build_host_ms");
    parallelFor(set.jobs.size(), threads, [&](std::size_t i) {
        Build &b = set.jobs[i];
        const sim::Workload &w = *b.workload;
        const auto t0 = std::chrono::steady_clock::now();
        if (!w.tracePath.empty()) {
            // Replay: the artifact is the workload. No codegen, no
            // if-conversion profiling, no condition generation happens
            // anywhere downstream of this load.
            {
                obs::ScopedSpan span(obs::tracer(), "trace_load", "build",
                                     w.binaryKey());
                // loadOrThrow: a corrupt artifact surfaces as a typed
                // ArtifactError out of the sweep (parallelFor rethrows), so
                // a shard worker can report "corrupt trace" distinctly
                // instead of dying mid-pool.
                b.trace = std::make_shared<const program::TraceFile>(
                    program::TraceFile::loadOrThrow(w.tracePath));
            }
            b.binary = sim::traceBinary(b.trace);
            obs::ScopedSpan span(obs::tracer(), "decode", "build",
                                 w.binaryKey());
            b.decoded = sim::decodeShared(b.binary);
        } else {
            {
                obs::ScopedSpan span(obs::tracer(), "binary_build",
                                     "build", w.binaryKey());
                b.binary = sim::buildBinaryShared(w.profile, w.ifConvert);
            }
            {
                obs::ScopedSpan span(obs::tracer(), "decode", "build",
                                     w.binaryKey());
                b.decoded = sim::decodeShared(b.binary);
            }
            if (record) {
                obs::ScopedSpan span(obs::tracer(), "trace_record",
                                     "build", w.binaryKey());
                program::TraceFile::Meta meta;
                meta.benchmark = w.profile.name;
                meta.isFp = w.profile.isFp;
                meta.ifConverted = w.ifConvert;
                meta.seed = w.profile.seed;
                auto t = std::make_shared<const program::TraceFile>(
                    program::TraceFile::record(*b.binary, meta,
                                               sim::coreSeed(w.profile),
                                               record_insts,
                                               b.decoded.get()));
                t->store(record_path(w));
                b.trace = std::move(t);
            }
        }
        b.hostMs = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0).count();
        m_builds.add(1);
        m_build_ms.observe(b.hostMs);
    });

    // Validate every replaying workload against its loaded artifact —
    // not just the first workload of each job, since tracePath is
    // public API and hand-built workloads could mis-key an artifact two
    // ways. Demanding the oracle-lookahead slack on top of each run
    // window makes a too-short artifact fail here, not as a
    // stream-exhaustion panic mid-sweep; recorded traces always carry
    // this slack, so same-matrix replays pass.
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const sim::Workload &w = workloads[i];
        if (w.tracePath.empty())
            continue;
        set.of(i).trace->validate(
            w.profile.name, w.profile.seed, w.ifConvert,
            w.warmupInsts + w.measureInsts + program::kTraceRecordSlack);
    }
    return set;
}

/** The sweep's result cache; nullptr when none is configured. */
std::unique_ptr<cache::ResultCache>
openResultCache(const SweepOptions &opts)
{
    if (opts.resultCacheDir.empty())
        return nullptr;
    makeDirs(opts.resultCacheDir, "result cache");
    return std::make_unique<cache::ResultCache>(opts.resultCacheDir);
}

/**
 * The real cache behavior of one sweep: @p rcache's stats (none when
 * null) plus the @p simulated cells actually executed, also added to
 * the "<tier>.result_cache_*" and "<tier>.<simulated_metric>" metrics.
 * The deterministic summary counters never look at any of this.
 */
ResultCacheUse
publishResultCacheUse(const cache::ResultCache *rcache,
                      std::uint64_t simulated, const std::string &tier,
                      const std::string &simulated_metric)
{
    obs::MetricRegistry &m = obs::metrics();
    obs::Counter &m_hits = m.counter(tier + ".result_cache_hits");
    obs::Counter &m_misses = m.counter(tier + ".result_cache_misses");
    obs::Counter &m_stores = m.counter(tier + ".result_cache_stores");
    obs::Counter &m_corrupt = m.counter(tier + ".result_cache_corrupt");
    ResultCacheUse use;
    if (rcache != nullptr) {
        const cache::ResultCacheStats st = rcache->stats();
        use.hits = st.hits;
        use.misses = st.misses;
        use.stores = st.stores;
        use.corrupt = st.corrupt;
        m_hits.add(st.hits);
        m_misses.add(st.misses);
        m_stores.add(st.stores);
        m_corrupt.add(st.corrupt);
    }
    use.simulated = simulated;
    m.counter(tier + "." + simulated_metric).add(simulated);
    return use;
}

/**
 * Live phase-2 progress line on stderr: completed/total jobs plus an
 * ETA scaled from elapsed wall time over completed jobs. Thread-safe;
 * silent when off.
 */
class Progress
{
  public:
    Progress(bool on, std::size_t total)
        : on_(on), total_(total), start_(std::chrono::steady_clock::now())
    {
    }

    /** Count one completed job and redraw the line. */
    void
    jobDone()
    {
        if (!on_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        ++done_;
        const double elapsed_s = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start_).count();
        const double eta_s = elapsed_s / static_cast<double>(done_) *
            static_cast<double>(total_ - done_);
        logRawf("\rsweep: %zu/%zu jobs (%.0f%%) eta %.1fs   ", done_,
                total_,
                100.0 * static_cast<double>(done_) /
                    static_cast<double>(total_),
                eta_s);
    }

    /** End the line once every job is done. */
    void
    finish()
    {
        if (on_ && total_ > 0)
            logRaw("\n");
    }

  private:
    const bool on_;
    const std::size_t total_;
    const std::chrono::steady_clock::time_point start_;
    std::mutex mutex_;
    std::size_t done_ = 0;
};

} // namespace

SweepCounters
sweepCountersFor(const std::vector<RunSpec> &specs, bool record)
{
    SweepCounters c;
    // Distinct workloads, first-appearance order (the engine's cache
    // layout).
    std::unordered_map<std::string, std::size_t> keys;
    std::vector<const RunSpec *> builds;
    for (const RunSpec &s : specs) {
        const std::string key = s.buildKey();
        if (keys.emplace(key, builds.size()).second)
            builds.push_back(&s);
    }
    c.binariesBuilt = builds.size();
    c.decodedPrograms = builds.size();
    c.decodedCacheHits = specs.size() - builds.size();
    // Trace counters are deliberately symmetric between recording and
    // replaying: the sweep that records N artifacts and the sweep that
    // replays them report identical numbers, keeping their summaries
    // byte-comparable.
    std::uint64_t traced_builds = 0;
    for (const RunSpec *b : builds)
        traced_builds += (!b->tracePath.empty() || record) ? 1 : 0;
    std::uint64_t traced_specs = 0;
    for (const RunSpec &s : specs)
        traced_specs += (!s.tracePath.empty() || record) ? 1 : 0;
    c.tracesLoaded = traced_builds;
    c.traceCacheHits = traced_specs - traced_builds;
    // Window-checkpoint sets: one per distinct (workload, region,
    // policy) among the eligible sampled specs. Disk-cache state never
    // enters here — the summary must not depend on what a previous
    // sweep left behind.
    std::unordered_map<std::string, bool> ckpt_keys;
    std::uint64_t eligible = 0;
    for (const RunSpec &s : specs) {
        if (!sampling::checkpointEligible(s.sampling))
            continue;
        ++eligible;
        ckpt_keys.emplace(checkpointKey(s), true);
    }
    c.checkpointsBuilt = ckpt_keys.size();
    c.checkpointCacheHits = eligible - ckpt_keys.size();
    // Result-cache counters: distinct cell identities among the specs.
    // Same contract as above — a pure function of the spec list (the
    // identity falls back to buildKey(), never artifact contents), so
    // cold, warm and sharded sweeps all report identical bytes.
    std::unordered_map<std::string, bool> result_keys;
    for (const RunSpec &s : specs)
        result_keys.emplace(cache::runCounterKey(s), true);
    c.resultsCached = result_keys.size();
    c.resultCacheHits = specs.size() - result_keys.size();
    return c;
}

SweepEngine::SweepEngine(SweepOptions opts) : opts_(opts) {}

std::vector<sim::RunResult>
SweepEngine::run(const RunMatrix &matrix)
{
    return run(matrix.specs());
}

std::vector<sim::RunResult>
SweepEngine::run(const std::vector<RunSpec> &specs)
{
    const unsigned threads = resolveThreads(opts_.threads);
    threadsUsed_ = threads;

    const BuildSet builds = buildWorkloads(specs, opts_, threads);
    // Counters are a pure function of the spec list and options (shared
    // with the shard supervisor, which reports a merged sweep without
    // running an engine over the full list itself).
    counters_ = sweepCountersFor(specs, !opts_.recordTraceDir.empty());

    // Result-cache probe: each cell's full semantic key (workload
    // identity — the trace's content hash when one is attached — plus
    // scheme, config, sampling policy, window, schema version, salt)
    // is looked up BEFORE any checkpoint or run job is formed, so a
    // hit skips the cell's entire downstream cost. The cached value is
    // the cell's exact emitter bytes; parsing it back (and re-emitting
    // at sink time) round-trips exactly, so a fully warm sweep's
    // document is byte-identical to the cold one. Any damaged entry is
    // a typed recoverable miss inside lookup(); an entry that parses
    // but no longer matches the run schema is handled the same way
    // here.
    const std::unique_ptr<cache::ResultCache> rcache =
        openResultCache(opts_);
    std::vector<std::string> rkeys(specs.size());
    std::vector<char> rhit(specs.size(), 0);
    std::vector<sim::RunResult> rcached(specs.size());
    for (std::size_t i = 0; rcache != nullptr && i < specs.size(); ++i) {
        rkeys[i] = cache::cellKeyText(specs[i], builds.of(i).traceHash());
        const auto payload = rcache->lookup(rkeys[i]);
        if (!payload)
            continue;
        try {
            rcached[i] = parseRunJson(*payload);
            rhit[i] = 1;
        } catch (const jsonmin::JsonParseError &e) {
            warn("result-cache entry unusable, re-running " +
                 specs[i].label() + ": " + e.what());
        }
    }

    // Phase 2: one pool runs every miss cell. Its work items, in
    // first-appearance order of the specs, are a whole run per
    // non-eligible spec and one window-checkpoint set per distinct
    // (workload, region, policy) among the checkpoint-eligible sampled
    // specs (sampling/window_checkpoint.hh), so N scheme/config cells on
    // the same workload pay for one functional pass. A worker runs a
    // queued window job when one is ready; otherwise it takes the next
    // item: it simulates the run, or builds the set (or loads it from
    // the on-disk pp.ckpt.v2 cache) and queues one job per window for
    // every cell sharing it — windows are independent given their
    // checkpoint. The worker that finishes a set's last window merges
    // the set's cells in window order (bit-identical to the serial
    // checkpoint route by construction) and frees the set, so a sweep
    // holds only the sets its running windows need. results[i] belongs
    // to specs[i] regardless of which worker produced it or when.
    struct CkptSet
    {
        std::vector<std::size_t> cells; ///< miss specs sharing it
        sampling::WindowCheckpointSet set;
        double buildMs = 0.0;
    };
    constexpr std::size_t kNoCkpt = static_cast<std::size_t>(-1);
    std::vector<CkptSet> ckpts;
    std::unordered_map<std::string, std::size_t> key_to_ckpt;
    std::vector<std::size_t> spec_ckpt(specs.size(), kNoCkpt);
    // Items by spec index: the spec's whole run, or the set it is the
    // first to need.
    std::vector<std::size_t> items;
    std::size_t total_jobs = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &s = specs[i];
        // A cache-hit cell needs no job at all, and must not force a
        // checkpoint set to be built on its behalf.
        if (rhit[i])
            continue;
        if (!sampling::checkpointEligible(s.sampling)) {
            items.push_back(i);
            ++total_jobs;
            continue;
        }
        const std::string key = checkpointKey(s);
        auto it = key_to_ckpt.find(key);
        if (it == key_to_ckpt.end()) {
            it = key_to_ckpt.emplace(key, ckpts.size()).first;
            ckpts.emplace_back();
            items.push_back(i);
        }
        spec_ckpt[i] = it->second;
        ckpts[it->second].cells.push_back(i);
        total_jobs += s.sampling.windowsInRegion(s.measureInsts);
    }
    if (!ckpts.empty() && !opts_.checkpointDir.empty())
        makeDirs(opts_.checkpointDir, "checkpoint");

    struct WindowJob
    {
        std::size_t spec;
        std::size_t window;
    };
    std::vector<std::vector<sampling::WindowRunResult>> window_runs(
        specs.size());
    std::vector<std::atomic<std::size_t>> windows_left(ckpts.size());
    std::atomic<std::size_t> resident{0};
    std::atomic<std::size_t> resident_peak{0};
    std::vector<sim::RunResult> results(specs.size());
    obs::Counter &m_ckpts =
        obs::metrics().counter("sweep.checkpoint_sets");
    Progress progress(opts_.progress, total_jobs);

    // Build or load set k and queue its window jobs.
    auto startSet = [&](std::size_t k) {
        CkptSet &c = ckpts[k];
        const RunSpec &s = specs[c.cells.front()];
        const Build &b = builds.of(c.cells.front());
        const std::size_t held = resident.fetch_add(1) + 1;
        std::size_t peak = resident_peak.load();
        while (held > peak &&
               !resident_peak.compare_exchange_weak(peak, held)) {
        }
        const auto t0 = std::chrono::steady_clock::now();
        std::string path;
        if (!opts_.checkpointDir.empty()) {
            path = opts_.checkpointDir + "/" +
                   hashHex(fnv1a(checkpointKey(s))) + ".ppckpt";
        }
        bool loaded = false;
        if (!path.empty() && std::filesystem::exists(path)) {
            // A cached set round-trips exactly (pure integer payload),
            // so the sweep's results are byte-identical to a cold
            // build. Corruption, or a set that does not fit the binary,
            // surfaces as a typed ArtifactError out of run(), classified
            // by shard workers like a corrupt trace. A set an older
            // build stored is rebuilt and replaced instead.
            obs::ScopedSpan span(obs::tracer(), "ckpt_load", "build",
                                 s.label());
            try {
                c.set = sampling::WindowCheckpointSet::loadOrThrow(path);
                c.set.validate(*b.binary, b.replayed(), s.warmupInsts,
                               s.measureInsts, s.sampling, path);
                loaded = true;
            } catch (const ArtifactError &e) {
                if (e.kind() != ArtifactError::Kind::BadVersion)
                    throw;
                warn(std::string(e.what()) + "; rebuilding it");
            }
        }
        if (!loaded) {
            c.set = sampling::buildWindowCheckpoints(
                *b.binary, s.profile, s.warmupInsts, s.measureInsts,
                s.sampling, b.decoded.get(), b.replayed());
            if (!path.empty())
                c.set.store(path); // atomic: never torn by a kill
        }
        c.buildMs = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0).count();
        m_ckpts.add(1);

        const std::size_t n = c.set.windows.size();
        windows_left[k].store(n * c.cells.size());
        std::vector<WindowJob> jobs;
        jobs.reserve(n * c.cells.size());
        for (const std::size_t i : c.cells) {
            window_runs[i].resize(n);
            for (std::size_t w = 0; w < n; ++w)
                jobs.push_back(WindowJob{i, w});
        }
        return jobs;
    };

    // Merge every cell of set k, then free the set.
    auto finishSet = [&](std::size_t k) {
        CkptSet &c = ckpts[k];
        for (const std::size_t i : c.cells) {
            const RunSpec &s = specs[i];
            sampling::SampledRun merged = sampling::mergeWindowRuns(
                c.set, window_runs[i], s.profile.name, s.measureInsts);
            // The shared set's build (or load) cost is attributed to
            // every run that consumed it, like buildHostMs.
            merged.result.ffHostMs += c.buildMs;
            merged.result.hostMs += c.buildMs;
            results[i] = merged.result;
            window_runs[i] = {};
        }
        c.set = {};
        resident.fetch_sub(1);
    };

    const std::function<std::vector<WindowJob>(std::size_t)> item =
        [&](std::size_t item_index) {
            const std::size_t i = items[item_index];
            if (spec_ckpt[i] != kNoCkpt)
                return startSet(spec_ckpt[i]);
            const RunSpec &s = specs[i];
            const Build &build = builds.of(i);
            {
                obs::ScopedSpan span(obs::tracer(), "run", "sweep",
                                     s.label());
                results[i] = s.sampling.enabled()
                    ? sampling::sampledRun(*build.binary, s.profile,
                                           s.scheme, s.config,
                                           s.warmupInsts, s.measureInsts,
                                           s.sampling, build.decoded.get(),
                                           build.replayed())
                    : sim::run(*build.binary, s.profile, s.scheme,
                               s.config, s.warmupInsts, s.measureInsts,
                               build.decoded.get(), build.replayed());
            }
            progress.jobDone();
            return std::vector<WindowJob>{};
        };
    const std::function<void(const WindowJob &)> window =
        [&](const WindowJob &job) {
            const RunSpec &s = specs[job.spec];
            const Build &build = builds.of(job.spec);
            const std::size_t k = spec_ckpt[job.spec];
            {
                obs::ScopedSpan span(obs::tracer(), "run", "sweep",
                                     s.label());
                window_runs[job.spec][job.window] = sampling::runWindow(
                    ckpts[k].set.windows[job.window], *build.binary,
                    sim::resolveConfig(s.scheme, s.config),
                    sim::coreSeed(s.profile), build.decoded.get(),
                    build.replayed());
            }
            progress.jobDone();
            // The countdown orders every window's result before the
            // merge, which the last window to finish runs.
            if (windows_left[k].fetch_sub(1) == 1)
                finishSet(k);
        };
    streamFor(items.size(), threads, item, window);
    progress.finish();
    obs::metrics()
        .gauge("sweep.checkpoint_sets_resident_peak")
        .set(static_cast<double>(resident_peak.load()));

    // Per-run bookkeeping, in spec order.
    obs::Counter &m_runs = obs::metrics().counter("sweep.runs");
    obs::Histogram &m_run_ms =
        obs::metrics().histogram("sweep.run_host_ms");
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (rhit[i]) {
            // Cached cells are taken verbatim — host-time fields
            // included, so a fully warm document is byte-identical to
            // the cold one without any scrubbing.
            results[i] = rcached[i];
            continue;
        }
        // The build's wall time is amortized over the cell's runs, so
        // the result document carries the full host-time breakdown.
        results[i].buildHostMs = builds.of(i).hostMs;
        results[i].traceHash = builds.of(i).traceHash();
        m_runs.add(1);
        m_run_ms.observe(results[i].hostMs);
    }

    // Store every executed cell's exact emitter bytes, then publish
    // the real cache behavior.
    std::uint64_t simulated = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (rhit[i])
            continue;
        ++simulated;
        if (rcache == nullptr)
            continue;
        std::ostringstream os;
        JsonWriter w(os);
        writeRunJson(w, specs[i], results[i]);
        try {
            rcache->store(rkeys[i], os.str());
        } catch (const ArtifactError &e) {
            warn("result-cache store failed for " + specs[i].label() +
                 ": " + e.what());
        }
    }
    resultCacheUse_ = publishResultCacheUse(rcache.get(), simulated,
                                            "sweep", "runs_simulated");
    return results;
}

namespace
{

/**
 * Configs per replay batch job: each batch makes one pass over the
 * shared stream, so the batch size trades stream-walk count against
 * per-pass table working-set (and pool parallelism across batches).
 * Purely a scheduling knob — batched cells see identical inputs at any
 * batch size, so results never depend on it.
 */
constexpr std::size_t kReplayConfigBatch = 8;

/**
 * CPU milliseconds consumed by the calling thread. The replay tier's
 * stream/replay host times are resource costs feeding a throughput
 * metric (configs/sec, speedup vs full sim); per-job wall clock would
 * charge pool oversubscription — threads beyond the machine's cores —
 * against the tier, inflating the summed cost by the subscription
 * factor on small hosts (CI runners included).
 */
double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
        static_cast<double>(ts.tv_nsec) * 1e-6;
}

} // namespace

std::vector<replay::ReplayWorkloadResult>
SweepEngine::runReplay(const replay::ReplayMatrix &matrix)
{
    return runReplay(matrix.workloads(), matrix.configs());
}

std::vector<replay::ReplayWorkloadResult>
SweepEngine::runReplay(
    const std::vector<replay::ReplayWorkloadSpec> &workloads,
    const std::vector<replay::ReplayConfig> &configs)
{
    const unsigned threads = resolveThreads(opts_.threads);
    threadsUsed_ = threads;

    const BuildSet builds = buildWorkloads(workloads, opts_, threads);

    // Result-cache probe, per (workload, config) cell: the replay
    // tier's cacheable unit is one pp.replay.v1 config object. Stream
    // extraction below always runs — the workload-level stream fields
    // need it — but every hit cell drops out of the batch fan-out.
    const std::unique_ptr<cache::ResultCache> rcache =
        openResultCache(opts_);
    std::vector<std::vector<std::string>> rkeys(workloads.size());
    std::vector<std::vector<char>> rhit(workloads.size());
    std::vector<std::vector<replay::ReplayConfigResult>> rcached(
        workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        rkeys[i].resize(configs.size());
        rhit[i].assign(configs.size(), 0);
        rcached[i].resize(configs.size());
        if (rcache == nullptr)
            continue;
        const std::string wl = cache::workloadIdentity(
            workloads[i], builds.of(i).traceHash());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            rkeys[i][c] =
                cache::replayKeyText(workloads[i], wl, configs[c]);
            const auto payload = rcache->lookup(rkeys[i][c]);
            if (!payload)
                continue;
            try {
                rcached[i][c] = parseReplayConfigJson(*payload);
                rhit[i][c] = 1;
            } catch (const jsonmin::JsonParseError &e) {
                warn("result-cache entry unusable, re-evaluating " +
                     workloads[i].binaryKey() + "/" + configs[c].name +
                     ": " + e.what());
            }
        }
    }

    // Extract each workload's committed outcome stream ONCE — this is
    // the cached artifact every config batch shares, the replay tier's
    // analogue of the binary cache.
    std::vector<replay::ReplayStream> streams(workloads.size());
    std::vector<double> stream_ms(workloads.size(), 0.0);
    obs::Counter &m_streams =
        obs::metrics().counter("replay.streams_built");
    parallelFor(workloads.size(), threads, [&](std::size_t i) {
        const replay::ReplayWorkloadSpec &s = workloads[i];
        const Build &b = builds.of(i);
        const double t0 = threadCpuMs();
        obs::ScopedSpan span(obs::tracer(), "stream_extract", "replay",
                             s.binaryKey());
        streams[i] = replay::extractStream(
            *b.binary, s.profile, s.warmupInsts, s.measureInsts,
            b.decoded.get(), b.replayed());
        stream_ms[i] = threadCpuMs() - t0;
        m_streams.add(1);
    });

    // Phase 2: fan config batches across the pool. Each job walks the
    // shared stream once with its own cells (and its own architectural
    // predicate walker — per-batch shared state evolves identically in
    // every batch), then writes into disjoint result slots, so the
    // document is byte-identical at any thread count or batch size.
    std::vector<replay::ReplayWorkloadResult> results(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const replay::ReplayWorkloadSpec &s = workloads[i];
        replay::ReplayWorkloadResult &r = results[i];
        r.benchmark = s.profile.name;
        r.ifConvert = s.ifConvert;
        r.warmupInsts = s.warmupInsts;
        r.measureInsts = s.measureInsts;
        r.streamEvents = streams[i].events();
        r.streamBranches = streams[i].measureBranches;
        r.streamCompares = streams[i].measureCompares;
        r.buildHostMs = builds.of(i).hostMs;
        r.streamHostMs = stream_ms[i];
        r.traceHash = builds.of(i).traceHash();
        r.configs.resize(configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            if (rhit[i][c])
                r.configs[c] = rcached[i][c];
        }
    }

    // Only the miss cells fan out. Batching an arbitrary subset is
    // safe: each batch's shared walker state is independent of which
    // cells ride along (see kReplayConfigBatch), so a partially warm
    // sweep's cells are byte-identical to a cold sweep's.
    struct BatchJob
    {
        std::size_t workload;
        std::vector<std::size_t> cfgs; ///< config indices (miss cells)
    };
    std::vector<BatchJob> jobs;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        std::vector<std::size_t> missing;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            if (!rhit[i][c])
                missing.push_back(c);
        }
        for (std::size_t from = 0; from < missing.size();
             from += kReplayConfigBatch) {
            BatchJob job;
            job.workload = i;
            job.cfgs.assign(
                missing.begin() + from,
                missing.begin() +
                    std::min(from + kReplayConfigBatch, missing.size()));
            jobs.push_back(std::move(job));
        }
    }
    std::vector<double> batch_ms(jobs.size(), 0.0);
    obs::Counter &m_evals =
        obs::metrics().counter("replay.config_evals");
    Progress progress(opts_.progress, jobs.size());
    parallelFor(jobs.size(), threads, [&](std::size_t j) {
        const BatchJob &job = jobs[j];
        const replay::ReplayWorkloadSpec &s = workloads[job.workload];
        const double t0 = threadCpuMs();
        {
            obs::ScopedSpan span(obs::tracer(), "replay_batch", "replay",
                                 s.binaryKey());
            std::vector<replay::ReplayCell> cells;
            cells.reserve(job.cfgs.size());
            for (const std::size_t c : job.cfgs)
                cells.emplace_back(configs[c]);
            replay::PredictorReplay pass(*builds.of(job.workload).binary,
                                         streams[job.workload]);
            pass.run(cells);
            for (std::size_t k = 0; k < job.cfgs.size(); ++k) {
                replay::ReplayConfigResult &cr =
                    results[job.workload].configs[job.cfgs[k]];
                cr.name = cells[k].name();
                cr.storageBytes = cells[k].storageBytes();
                cr.stats = cells[k].stats();
            }
        }
        batch_ms[j] = threadCpuMs() - t0;
        m_evals.add(static_cast<std::uint64_t>(job.cfgs.size()));
        progress.jobDone();
    });
    progress.finish();
    for (std::size_t j = 0; j < jobs.size(); ++j)
        results[jobs[j].workload].replayHostMs += batch_ms[j];

    // Store every evaluated cell's exact emitter bytes.
    std::uint64_t simulated = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            if (rhit[i][c])
                continue;
            ++simulated;
            if (rcache == nullptr)
                continue;
            std::ostringstream os;
            JsonWriter w(os);
            writeReplayConfigJson(w, results[i].configs[c],
                                  workloads[i].measureInsts);
            try {
                rcache->store(rkeys[i][c], os.str());
            } catch (const ArtifactError &e) {
                warn("result-cache store failed for " +
                     workloads[i].binaryKey() + "/" + configs[c].name +
                     ": " + e.what());
            }
        }
    }
    resultCacheUse_ = publishResultCacheUse(rcache.get(), simulated,
                                            "replay", "configs_simulated");
    return results;
}

} // namespace driver
} // namespace pp
