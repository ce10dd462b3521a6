#include "exec/shard_supervisor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>
#include <unordered_map>

#include "cache/result_cache.hh"
#include "common/bytestream.hh"
#include "common/logging.hh"
#include "driver/result_sink.hh"
#include "exec/shard.hh"
#include "exec/subprocess.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"
#include "program/trace.hh"

namespace pp
{
namespace exec
{

namespace
{

/** One cell's result-cache key, or why it has none. */
struct CellKey
{
    std::string key;
    std::string error;
};

/**
 * Each spec's cell key, derived as SweepEngine::run derives it
 * (cache::cellKeyText), with every distinct trace loaded once for its
 * content hash. A trace that does not load leaves its cells keyless:
 * they never count as found, and their worker reports the artifact
 * error itself.
 */
std::vector<CellKey>
cellKeys(const std::vector<driver::RunSpec> &specs)
{
    // Trace path -> its content hash (in key), or why it did not load.
    std::unordered_map<std::string, CellKey> traces;
    std::vector<CellKey> out(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string &path = specs[i].tracePath;
        CellKey hash; // empty for a generated workload
        if (!path.empty()) {
            auto it = traces.find(path);
            if (it == traces.end()) {
                try {
                    hash.key = program::TraceFile::loadOrThrow(path)
                                   .contentHashHex();
                } catch (const ArtifactError &e) {
                    hash.error = e.what();
                }
                it = traces.emplace(path, hash).first;
            }
            hash = it->second;
        }
        if (hash.error.empty())
            out[i].key = cache::cellKeyText(specs[i], hash.key);
        else
            out[i].error = hash.error;
    }
    return out;
}

std::string
describeFailure(const std::string &klass, const Subprocess::Result &res)
{
    if (res.timedOut)
        return klass;
    if (res.termSignal != 0)
        return klass + " (signal " + std::to_string(res.termSignal) + ")";
    if (res.exitCode != 0)
        return klass + " (exit " + std::to_string(res.exitCode) + ")";
    return klass;
}

std::string
stderrTail(const std::string &err)
{
    constexpr std::size_t kTail = 400;
    std::string tail =
        err.size() <= kTail ? err : err.substr(err.size() - kTail);
    // One line for the fatal message.
    std::replace(tail.begin(), tail.end(), '\n', ' ');
    while (!tail.empty() && tail.back() == ' ')
        tail.pop_back();
    return tail;
}

} // namespace

ShardSupervisor::ShardSupervisor(ShardOptions opts)
    : opts_(std::move(opts)), plan_(FaultPlan::parse(opts_.faultSpec))
{
    if (opts_.workerCmd.empty())
        fatal("shard supervisor: no worker command configured");
    if (opts_.maxAttempts == 0)
        fatal("shard supervisor: maxAttempts must be >= 1");
}

std::vector<sim::RunResult>
ShardSupervisor::run(const std::vector<driver::RunSpec> &specs)
{
    const auto ranges = shardRanges(specs.size(), opts_.shards);
    if (ranges.empty())
        fatal("shard supervisor: empty sweep");

    std::error_code ec;
    std::filesystem::create_directories(opts_.resultCacheDir, ec);
    if (ec)
        fatal("cannot create result cache directory " +
              opts_.resultCacheDir + ": " + ec.message());

    // Instruments are registered up front so a clean run still reports
    // zeroed failure counters in its metrics snapshot.
    obs::Counter &m_retries =
        obs::metrics().counter("sweep.shard_retries");
    obs::Counter &m_crash =
        obs::metrics().counter("sweep.shard_failures.crash");
    obs::Counter &m_timeout =
        obs::metrics().counter("sweep.shard_failures.timeout");
    obs::Counter &m_corrupt_out =
        obs::metrics().counter("sweep.shard_failures.corrupt_output");
    obs::Counter &m_corrupt_trace =
        obs::metrics().counter("sweep.shard_failures.corrupt_trace");
    obs::Histogram &m_backoff =
        obs::metrics().histogram("sweep.shard_backoff_ms");
    obs::Histogram &m_attempt_ms =
        obs::metrics().histogram("sweep.shard_attempt_ms");
    obs::Histogram &m_lease_size = obs::metrics().histogram(
        "sweep.lease_batch_size", {1, 2, 4, 8, 16, 32, 64, 128});
    obs::Counter &m_rc_hits =
        obs::metrics().counter("sweep.result_cache_hits");
    obs::Counter &m_runs_sim =
        obs::metrics().counter("sweep.runs_simulated");

    std::vector<sim::RunResult> results(specs.size());
    stats_ = ShardStats{};
    std::mutex state_mutex;
    std::vector<std::string> errors;
    std::atomic<bool> abort{false};

    const std::vector<CellKey> keys = cellKeys(specs);
    const cache::ResultCache store(opts_.resultCacheDir);
    // Read cell i back into results[i]: "" when its object verifies
    // under its key, else why not.
    auto readCell = [&](std::size_t i) -> std::string {
        if (keys[i].key.empty())
            return keys[i].error;
        try {
            results[i] = driver::parseRunJson(cache::ResultCache::readEntry(
                store.objectPath(keys[i].key), keys[i].key));
            return "";
        } catch (const ArtifactError &e) {
            return e.what();
        } catch (const jsonmin::JsonParseError &e) {
            return e.what();
        }
    };

    auto runShard = [&](std::size_t shard) {
        const auto [begin, end] = ranges[shard];

        // Resume per cell: a shard whose cells all verify needs no
        // worker; one that misses any runs, and its worker simulates
        // just the missing cells.
        std::uint64_t found = 0;
        for (std::size_t i = begin; i < end; ++i)
            found += readCell(i).empty() ? 1 : 0;
        m_rc_hits.add(found);
        m_runs_sim.add(end - begin - found);
        {
            std::lock_guard<std::mutex> lock(state_mutex);
            stats_.resultCacheHits += found;
            stats_.runsSimulated += end - begin - found;
            if (found == end - begin) {
                ++stats_.resumedShards;
                return;
            }
        }

        std::vector<std::string> history;
        unsigned corrupt_trace_seen = 0;
        for (unsigned attempt = 1;; ++attempt) {
            if (abort.load())
                return;
            {
                std::lock_guard<std::mutex> lock(state_mutex);
                ++stats_.attempts;
            }
            Subprocess::Options sopts;
            sopts.timeoutMs = opts_.timeoutMs;
            // Always pinned, even to "": a worker must see exactly the
            // fault the plan injects for this attempt, never one
            // inherited from the supervisor's own environment.
            sopts.env.emplace_back("PP_FAULT",
                                   plan_.classFor(shard, attempt));
            std::vector<std::string> cmd = opts_.workerCmd;
            cmd.push_back("--shard-range");
            cmd.push_back(std::to_string(begin) + ":" +
                          std::to_string(end));
            cmd.push_back("--result-cache-dir");
            cmd.push_back(opts_.resultCacheDir);

            const auto t0 = std::chrono::steady_clock::now();
            Subprocess::Result res;
            {
                obs::ScopedSpan span(obs::tracer(), "shard_attempt",
                                     "exec",
                                     "shard " + std::to_string(shard) +
                                         " attempt " +
                                         std::to_string(attempt));
                res = Subprocess::run(cmd, sopts);
            }
            m_attempt_ms.observe(
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count());

            std::string klass;
            std::string why;
            if (res.ok()) {
                for (std::size_t i = begin; i < end && why.empty(); ++i) {
                    const std::string error = readCell(i);
                    if (!error.empty())
                        why = "cell " + std::to_string(i) + " (" +
                              specs[i].label() + "): " + error;
                }
                if (why.empty()) {
                    logDebugf("shard %zu done: specs [%zu,%zu) in %u "
                              "attempt(s)",
                              shard, begin, end, attempt);
                    return;
                }
                klass = "corrupt-output";
            } else if (res.timedOut) {
                klass = "timeout";
                why = "deadline of " + std::to_string(opts_.timeoutMs) +
                      " ms exceeded";
            } else if (res.termSignal == 0 &&
                       res.exitCode == kTraceErrorExit) {
                klass = "corrupt-trace";
                why = stderrTail(res.err);
            } else {
                klass = "crash";
                why = stderrTail(res.err);
            }

            history.push_back(describeFailure(klass, res));
            {
                std::lock_guard<std::mutex> lock(state_mutex);
                if (klass == "crash")
                    ++stats_.crashFailures;
                else if (klass == "timeout")
                    ++stats_.timeoutFailures;
                else if (klass == "corrupt-output")
                    ++stats_.corruptOutputFailures;
                else
                    ++stats_.corruptTraceFailures;
            }
            (klass == "crash"
                 ? m_crash
                 : klass == "timeout"
                       ? m_timeout
                       : klass == "corrupt-output" ? m_corrupt_out
                                                   : m_corrupt_trace)
                .add(1);
            if (klass == "corrupt-trace")
                ++corrupt_trace_seen;

            const bool out_of_attempts = attempt >= opts_.maxAttempts;
            const bool artifact_hopeless =
                corrupt_trace_seen > kCorruptTraceRetries;
            if (out_of_attempts || artifact_hopeless) {
                std::ostringstream msg;
                msg << "shard " << shard << " (specs [" << begin << ","
                    << end << ") of " << specs.size()
                    << ") failed permanently after " << attempt
                    << " attempt(s): ";
                for (std::size_t i = 0; i < history.size(); ++i)
                    msg << (i != 0 ? ", " : "") << history[i];
                if (!why.empty())
                    msg << "; last error: " << why;
                std::lock_guard<std::mutex> lock(state_mutex);
                errors.push_back(msg.str());
                abort.store(true);
                return;
            }

            // Transient (or possibly transient): back off and retry.
            const std::uint64_t backoff = std::min<std::uint64_t>(
                kBackoffMaxMs,
                opts_.backoffBaseMs << (attempt - 1));
            warnf("shard %zu attempt %u failed (%s); retrying in %llu ms",
                  shard, attempt, history.back().c_str(),
                  static_cast<unsigned long long>(backoff));
            m_retries.add(1);
            m_backoff.observe(static_cast<double>(backoff));
            {
                std::lock_guard<std::mutex> lock(state_mutex);
                ++stats_.retries;
            }
            // Sleep in slices so a sibling's permanent failure aborts
            // promptly.
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(backoff);
            while (std::chrono::steady_clock::now() < until &&
                   !abort.load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
    };

    unsigned parallel = opts_.parallel;
    if (parallel == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        parallel = hw == 0 ? 1 : hw;
    }
    parallel = static_cast<unsigned>(
        std::min<std::size_t>(parallel, ranges.size()));

    // Most expensive shard first; each pump thread takes the next one
    // off a shared cursor until the list runs out or a shard fails
    // permanently.
    const std::vector<std::size_t> order = leaseOrder(specs, ranges);
    std::atomic<std::size_t> next{0};
    auto pump = [&]() {
        while (!abort.load()) {
            const std::size_t k = next.fetch_add(1);
            if (k >= order.size())
                return;
            const auto [begin, end] = ranges[order[k]];
            m_lease_size.observe(static_cast<double>(end - begin));
            runShard(order[k]);
        }
    };
    if (parallel <= 1) {
        pump();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(parallel);
        for (unsigned t = 0; t < parallel; ++t)
            pool.emplace_back(pump);
        for (auto &th : pool)
            th.join();
    }

    if (!errors.empty())
        fatal(errors.front());
    return results;
}

} // namespace exec
} // namespace pp
