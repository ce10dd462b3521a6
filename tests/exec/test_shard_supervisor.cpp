/**
 * @file
 * Fault-tolerant multi-process sweep execution, end to end against real
 * shard workers: bench_fig5_nonifconv in its self-exec worker mode
 * (the hidden --shard-range flag, delivering through the appended
 * --result-cache-dir), built beside this test — the same path a
 * harness's --shards run and CI's chaos smokes take.
 *
 * The load-bearing property throughout: the merged result of a
 * supervised sweep is byte-identical to a clean single-process sweep of
 * the same specs — whatever the shard count, fault schedule or retry
 * order — once the wall-time-only *host_ms fields are scrubbed.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "cache/result_cache.hh"
#include "common/atomic_io.hh"
#include "driver/grids.hh"
#include "driver/result_sink.hh"
#include "driver/sweep_engine.hh"
#include "exec/fault.hh"
#include "exec/shard.hh"
#include "exec/shard_supervisor.hh"
#include "program/suite.hh"
#include "sampling/sampling_policy.hh"
#include "sampling/window_checkpoint.hh"

using namespace pp;

namespace
{

/** The benchmarks every worker sweeps (`--filter`): the first three of
 *  the suite, so the Figure-5 matrix has 3 x 4 = 12 specs. */
constexpr const char *kFilter = "^(gzip|vpr|gcc)$";

/** A harness window: warmup, measure and --smarts period (0 = full). */
struct Window
{
    std::uint64_t warmup;
    std::uint64_t measure;
    std::uint64_t smarts;
};

/** The fault tests' window: full detail, cheap enough to rerun often. */
constexpr Window kSmall{1000, 5000, 0};

/** CI's sampled window (the checkpoint-cache chaos smoke). */
constexpr Window kSampled{5000, 30000, 20000};

/** The matrix bench_fig5_nonifconv enumerates for `--filter kFilter`
 *  at window @p w, optionally pointed at replay traces. */
std::vector<driver::RunSpec>
fig5Specs(const std::string &trace_dir = "", const Window &w = kSmall)
{
    driver::RunMatrix m;
    m.benchmarks(program::spec2000Suite())
        .ifConvert(false)
        .window(w.warmup, w.measure)
        .filterBenchmarks(kFilter);
    for (const auto &s : driver::fig5Schemes())
        m.addScheme(s.name, s.scheme);
    if (w.smarts > 0)
        m.addSampling("smarts", sampling::SamplingPolicy::smarts(w.smarts));
    std::vector<driver::RunSpec> specs = m.specs();
    driver::applyTraceDir(specs, trace_dir);
    return specs;
}

/** bench_fig5_nonifconv is built beside this test binary; find it there
 *  so the test passes whatever directory it is invoked from. */
std::string
workerBinary()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "./bench_fig5_nonifconv";
    buf[n] = '\0';
    return std::filesystem::path(buf).parent_path() /
        "bench_fig5_nonifconv";
}

/** The worker command a supervisor spawns: the harness with the flags
 *  that define fig5Specs(), plus @p extra (a later flag overrides). */
std::vector<std::string>
workerCmd(const std::vector<std::string> &extra = {},
          const Window &w = kSmall)
{
    std::vector<std::string> cmd = {
        workerBinary(), "--filter", kFilter,
        "--warmup", std::to_string(w.warmup),
        "--instructions", std::to_string(w.measure),
        "--threads", "1"};
    if (w.smarts > 0) {
        cmd.push_back("--smarts");
        cmd.push_back(std::to_string(w.smarts));
    }
    cmd.insert(cmd.end(), extra.begin(), extra.end());
    return cmd;
}

/** Zero the wall-time-only fields; everything else must match exactly. */
std::string
scrubHostMs(const std::string &json)
{
    static const std::regex re("\"([a-z_]*host_ms)\":[-+0-9.eE]+");
    return std::regex_replace(json, re, "\"$1\":0");
}

std::string
mergedJson(const std::vector<driver::RunSpec> &specs,
           const std::vector<sim::RunResult> &results)
{
    return scrubHostMs(
        driver::JsonSink{driver::sweepCountersFor(specs, false)}.toString(
            specs, results));
}

/** Fresh per-test scratch directory (under the gtest temp root). */
std::string
uniqueDir(const std::string &name)
{
    static int counter = 0;
    const std::string d = ::testing::TempDir() + "ppshard-" + name + "-" +
        std::to_string(::getpid()) + "-" + std::to_string(counter++);
    std::filesystem::create_directories(d);
    return d;
}

exec::ShardOptions
baseOptions(const std::string &dir)
{
    exec::ShardOptions opts;
    opts.shards = 4;
    opts.resultCacheDir = dir;
    opts.workerCmd = workerCmd();
    opts.backoffBaseMs = 1; // keep retry tests fast
    return opts;
}

/** Clean single-process reference sweep of the same specs. */
std::string
referenceJson(const std::vector<driver::RunSpec> &specs)
{
    driver::SweepEngine engine{driver::SweepOptions{}};
    return mergedJson(specs, engine.run(specs));
}

/** The entries of @p dir, by name. */
std::vector<std::string>
entriesOf(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace

// ---------------------------------------------------------------------
// FaultPlan + shardRanges
// ---------------------------------------------------------------------

TEST(FaultPlan, ParsesPointsAndBareClasses)
{
    const auto plan =
        exec::FaultPlan::parse("crash@0:1,hang@2:3,corrupt@1");
    EXPECT_EQ(plan.classFor(0, 1), "crash");
    EXPECT_EQ(plan.classFor(0, 2), "");
    EXPECT_EQ(plan.classFor(2, 3), "hang");
    EXPECT_EQ(plan.classFor(1, 1), "corrupt"); // attempt defaults to 1
    EXPECT_EQ(plan.classFor(3, 1), "");

    const auto bare = exec::FaultPlan::parse("truncate");
    EXPECT_EQ(bare.classFor(0, 1), "truncate");
    EXPECT_EQ(bare.classFor(7, 1), "truncate"); // every shard, attempt 1
    EXPECT_EQ(bare.classFor(0, 2), "");

    EXPECT_TRUE(exec::FaultPlan::parse("").empty());
    EXPECT_TRUE(exec::knownFaultClass("corrupt-trace"));
    EXPECT_FALSE(exec::knownFaultClass("meltdown"));
}

TEST(ShardRanges, ContiguousCoverWithRemainderUpFront)
{
    using Range = std::pair<std::size_t, std::size_t>;
    const auto r = exec::shardRanges(10, 4);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r[0], Range(0, 3));
    EXPECT_EQ(r[1], Range(3, 6));
    EXPECT_EQ(r[2], Range(6, 8));
    EXPECT_EQ(r[3], Range(8, 10));

    // More shards than specs: empty ranges drop.
    const auto tight = exec::shardRanges(3, 8);
    ASSERT_EQ(tight.size(), 3u);
    EXPECT_EQ(tight[2], Range(2, 3));

    const auto one = exec::shardRanges(5, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], Range(0, 5));

    EXPECT_TRUE(exec::shardRanges(0, 4).empty());
}

TEST(ShardRanges, ParsesTheWorkerFlag)
{
    using Range = std::pair<std::size_t, std::size_t>;
    EXPECT_EQ(exec::parseShardRange("0:3"), Range(0, 3));
    EXPECT_EQ(exec::parseShardRange("44:66"), Range(44, 66));
}

TEST(ShardRangesDeathTest, RejectsEveryOtherForm)
{
    for (const char *bad : {"3", "3:", ":3", "3:3", "5:2", "-1:3", "1:+3",
                            "1:3x", " 1:3", "1:99999999999999999999"})
        EXPECT_EXIT(exec::parseShardRange(bad),
                    ::testing::ExitedWithCode(1), "bad --shard-range")
            << bad;
}

TEST(SpecCost, FullChargesWindowSampledChargesDetailedWork)
{
    driver::RunSpec spec;
    spec.warmupInsts = 150000;
    spec.measureInsts = 10000000;
    // Full detail: the whole window, exactly.
    EXPECT_EQ(exec::specCost(spec), 10150000u);

    // Sampled: detailed windows plus the discounted fast-forward — far
    // cheaper than the full window it replaces.
    spec.sampling = sampling::SamplingPolicy::smarts(250000);
    const std::uint64_t windows = 10000000 / 250000 + 1;
    EXPECT_EQ(exec::specCost(spec),
              windows * spec.sampling.windowInsts() + 10150000 / 16);
    EXPECT_LT(exec::specCost(spec), 10150000u);
}

// ---------------------------------------------------------------------
// Lease order
// ---------------------------------------------------------------------

TEST(LeaseOrder, DescendingCostTiesByShardIndex)
{
    // Four shards with summed costs 500, 900, 2000 and 900: deliberately
    // out of order, with a cost tie (shards 1 and 3).
    std::vector<driver::RunSpec> specs(6);
    const std::uint64_t window[] = {250, 250, 450, 450, 2000, 900};
    for (std::size_t i = 0; i < specs.size(); ++i)
        specs[i].measureInsts = window[i];
    const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
        {0, 2}, {2, 4}, {4, 5}, {5, 6}};

    // Most expensive first; the tie breaks by shard index.
    EXPECT_EQ(exec::leaseOrder(specs, ranges),
              (std::vector<std::size_t>{2, 1, 3, 0}));
}

// ---------------------------------------------------------------------
// Supervisor end-to-end (real worker processes)
// ---------------------------------------------------------------------

TEST(ShardSupervisor, CleanRunMatchesInProcessSweepByteForByte)
{
    const auto specs = fig5Specs();
    const std::string dir = uniqueDir("clean");
    exec::ShardSupervisor supervisor(baseOptions(dir));
    const auto results = supervisor.run(specs);

    EXPECT_EQ(mergedJson(specs, results), referenceJson(specs));
    EXPECT_EQ(supervisor.stats().attempts, 4u);
    EXPECT_EQ(supervisor.stats().retries, 0u);
    EXPECT_EQ(supervisor.stats().resumedShards, 0u);
    EXPECT_EQ(supervisor.stats().resultCacheHits, 0u);
    EXPECT_EQ(supervisor.stats().runsSimulated, specs.size());
    // The workers delivered one cache object per cell, and nothing else.
    EXPECT_EQ(entriesOf(dir), std::vector<std::string>{"objects"});
    EXPECT_EQ(entriesOf(dir + "/objects").size(), specs.size());
}

TEST(ShardSupervisor, RecoversFromCrashTruncateAndCorrupt)
{
    const auto specs = fig5Specs();
    auto opts = baseOptions(uniqueDir("faults"));
    // kill -9 mid-shard, a torn cell object, and a flipped byte in
    // one — one shard is left clean as control.
    opts.faultSpec = "crash@0:1,truncate@2:1,corrupt@3:1";
    exec::ShardSupervisor supervisor(opts);
    const auto results = supervisor.run(specs);

    EXPECT_EQ(mergedJson(specs, results), referenceJson(specs));
    const exec::ShardStats &st = supervisor.stats();
    EXPECT_EQ(st.crashFailures, 1u);
    EXPECT_EQ(st.corruptOutputFailures, 2u);
    EXPECT_EQ(st.timeoutFailures, 0u);
    EXPECT_EQ(st.retries, 3u);
    EXPECT_EQ(st.attempts, 7u); // 4 shards + 3 retried attempts
}

TEST(ShardSupervisor, HangHitsDeadlineAndRecovers)
{
    const auto specs = fig5Specs();

    // The deadline must pass every healthy shard in whatever build runs
    // the test (sanitizer builds run shards several times slower), so
    // scale it from a timed healthy run of the same specs.
    const auto start = std::chrono::steady_clock::now();
    {
        auto opts = baseOptions(uniqueDir("hang-healthy"));
        opts.shards = 2;
        exec::ShardSupervisor healthy(opts);
        healthy.run(specs);
        ASSERT_EQ(healthy.stats().attempts, 2u);
    }
    const auto healthy_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());

    auto opts = baseOptions(uniqueDir("hang"));
    opts.shards = 2;
    opts.faultSpec = "hang@1:1";
    opts.timeoutMs = std::max<std::uint64_t>(2000, 4 * healthy_ms);
    exec::ShardSupervisor supervisor(opts);
    const auto results = supervisor.run(specs);

    EXPECT_EQ(mergedJson(specs, results), referenceJson(specs));
    EXPECT_EQ(supervisor.stats().timeoutFailures, 1u);
    EXPECT_EQ(supervisor.stats().retries, 1u);
    EXPECT_EQ(supervisor.stats().attempts, 3u);
}

TEST(ShardSupervisor, RecoversFromCorruptTraceArtifact)
{
    // Record replay traces with a clean in-process sweep first.
    const std::string trace_dir = uniqueDir("traces");
    {
        driver::SweepOptions record_opts;
        record_opts.recordTraceDir = trace_dir;
        driver::SweepEngine recorder(record_opts);
        recorder.run(fig5Specs());
    }
    const auto specs = fig5Specs(trace_dir);

    auto opts = baseOptions(uniqueDir("ctrace"));
    opts.workerCmd = workerCmd({"--trace-dir", trace_dir});
    opts.faultSpec = "corrupt-trace@1:1";
    exec::ShardSupervisor supervisor(opts);
    const auto results = supervisor.run(specs);

    EXPECT_EQ(mergedJson(specs, results), referenceJson(specs));
    EXPECT_EQ(supervisor.stats().corruptTraceFailures, 1u);
    EXPECT_EQ(supervisor.stats().retries, 1u);
}

TEST(ShardSupervisor, ARerunAtAnotherShardCountStartsNoWorker)
{
    // Cells are resumed one by one, not by range: a 2-shard run's cache
    // serves a 3-shard rerun whose ranges cut its shards differently.
    const auto specs = fig5Specs();
    const std::string dir = uniqueDir("resume");
    std::vector<sim::RunResult> first;
    {
        auto opts = baseOptions(dir);
        opts.shards = 2;
        exec::ShardSupervisor supervisor(opts);
        first = supervisor.run(specs);
        EXPECT_EQ(supervisor.stats().attempts, 2u);
    }
    // A worker that can only fail: completing proves every cell came
    // from the cache and no worker ever ran.
    auto opts = baseOptions(dir);
    opts.shards = 3;
    opts.workerCmd = {"/bin/false"};
    exec::ShardSupervisor supervisor(opts);
    const auto resumed = supervisor.run(specs);

    EXPECT_EQ(mergedJson(specs, resumed), mergedJson(specs, first));
    EXPECT_EQ(supervisor.stats().resumedShards, 3u);
    EXPECT_EQ(supervisor.stats().attempts, 0u);
    EXPECT_EQ(supervisor.stats().resultCacheHits, specs.size());
    EXPECT_EQ(supervisor.stats().runsSimulated, 0u);
}

TEST(ShardSupervisor, ADamagedCellReRunsOnlyItsShard)
{
    // No earlier supervisor: an in-process sweep fills the cache, and
    // one cell of the second shard's range gets a flipped byte. The
    // first shard's cells all verify; the second shard's worker runs,
    // finds its other cells and simulates the damaged one alone.
    const auto specs = fig5Specs();
    const std::string dir = uniqueDir("cellresume");
    {
        driver::SweepOptions fill;
        fill.resultCacheDir = dir;
        driver::SweepEngine(fill).run(specs);
    }
    const auto ranges = exec::shardRanges(specs.size(), 2);
    ASSERT_EQ(ranges.size(), 2u);
    const std::size_t victim = ranges[1].first + 1;
    const std::string object = cache::ResultCache(dir).objectPath(
        cache::cellKeyText(specs[victim], ""));
    std::string bytes;
    {
        std::ifstream is(object, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is), {});
    }
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x01;
    ASSERT_TRUE(writeFileAtomic(object, bytes));

    auto opts = baseOptions(dir);
    opts.shards = 2;
    exec::ShardSupervisor supervisor(opts);
    const auto results = supervisor.run(specs);

    EXPECT_EQ(mergedJson(specs, results), referenceJson(specs));
    EXPECT_EQ(supervisor.stats().resumedShards, 1u);
    EXPECT_EQ(supervisor.stats().attempts, 1u);
    EXPECT_EQ(supervisor.stats().retries, 0u);
    EXPECT_EQ(supervisor.stats().resultCacheHits, specs.size() - 1);
    EXPECT_EQ(supervisor.stats().runsSimulated, 1u);
}

TEST(ShardSupervisor, WorkStealingSurvivesFullFaultMatrixAtAnyWidth)
{
    // Every failure class at once — kill -9, a hang, a torn cell
    // object and a flipped byte in one — across six two-spec batches, at
    // one, two and eight concurrent workers. Whichever worker runs which
    // shard, the merged document must match the in-process reference.
    const auto specs = fig5Specs();
    const std::string reference = referenceJson(specs);
    for (const unsigned parallel : {1u, 2u, 8u}) {
        auto opts = baseOptions(
            uniqueDir("steal-p" + std::to_string(parallel)));
        opts.shards = 6;
        opts.parallel = parallel;
        opts.faultSpec = "crash@0:1,hang@1:1,truncate@2:1,corrupt@3:1";
        opts.timeoutMs = 2000;
        exec::ShardSupervisor supervisor(opts);
        const auto results = supervisor.run(specs);

        EXPECT_EQ(mergedJson(specs, results), reference)
            << "parallel=" << parallel;
        // Exact per-class tallies belong to the serial fault tests: on
        // a throttled host a fork storm can push ANY faulted worker
        // past the deadline before it runs (a crash classifies as a
        // timeout), adding spurious retries. What must hold at every
        // width: each injected fault cost at least one retry, every
        // retry was classified, and the merge above is still exact.
        const exec::ShardStats &st = supervisor.stats();
        EXPECT_GE(st.retries, 4u) << "parallel=" << parallel;
        EXPECT_EQ(st.attempts, 6u + st.retries)
            << "parallel=" << parallel;
        EXPECT_GE(st.timeoutFailures, 1u); // the hang always times out
        EXPECT_EQ(st.crashFailures + st.timeoutFailures +
                      st.corruptOutputFailures,
                  st.retries);
        EXPECT_EQ(st.corruptTraceFailures, 0u);
    }
}

TEST(ShardSupervisor, AWarmPassAgainstAFullCacheStartsNoWorker)
{
    // Cold pass: every cell missing, so every shard starts a worker.
    // Warm pass over the same cache: every cell found before launch, no
    // worker at all, and the merged bytes still match.
    const auto specs = fig5Specs();
    const std::string cache_dir = uniqueDir("warmcache");

    std::string cold_doc;
    {
        exec::ShardSupervisor supervisor(baseOptions(cache_dir));
        cold_doc = mergedJson(specs, supervisor.run(specs));
        EXPECT_EQ(supervisor.stats().attempts, 4u);
        EXPECT_EQ(supervisor.stats().runsSimulated, specs.size());
        EXPECT_EQ(supervisor.stats().resultCacheHits, 0u);
    }
    exec::ShardSupervisor supervisor(baseOptions(cache_dir));
    EXPECT_EQ(mergedJson(specs, supervisor.run(specs)), cold_doc);
    EXPECT_EQ(supervisor.stats().attempts, 0u);
    EXPECT_EQ(supervisor.stats().resultCacheHits, 12u);
    EXPECT_EQ(supervisor.stats().runsSimulated, 0u);
}

TEST(ShardSupervisor, SampledSweepSharingCheckpointDirMatchesInProcess)
{
    // CI's checkpoint-cache smoke in miniature: an in-process sampled
    // sweep fills the window-checkpoint cache, then sharded harness
    // workers load those pp.ckpt.v2 sets instead of rebuilding them.
    const auto specs = fig5Specs("", kSampled);
    const std::string ckpt_dir = uniqueDir("ckpt");
    driver::SweepOptions in_process;
    in_process.checkpointDir = ckpt_dir;
    driver::SweepEngine engine(in_process);
    const std::string reference = mergedJson(specs, engine.run(specs));
    ASSERT_FALSE(std::filesystem::is_empty(ckpt_dir));

    auto opts = baseOptions(uniqueDir("ckpt-sharded"));
    opts.workerCmd = workerCmd({"--checkpoint-dir", ckpt_dir}, kSampled);
    exec::ShardSupervisor supervisor(opts);
    EXPECT_EQ(mergedJson(specs, supervisor.run(specs)), reference);
    EXPECT_EQ(supervisor.stats().retries, 0u);
}

// ---------------------------------------------------------------------
// Loud permanent failure
// ---------------------------------------------------------------------

TEST(ShardSupervisorDeathTest, WorkerOfAnotherSpecListFailsPermanently)
{
    // The worker sweeps another benchmark set: it exits cleanly, but
    // every cell it stored is some other spec's, under that spec's key.
    // The supervisor finds its own range's cells missing rather than
    // putting vpr's numbers in gzip's rows.
    const auto specs = fig5Specs();
    auto opts = baseOptions(uniqueDir("identity"));
    opts.workerCmd = workerCmd({"--filter", "^(vpr|gcc|mcf)$"});
    opts.maxAttempts = 2;
    opts.parallel = 1; // deterministic: shard 0 fails first
    EXPECT_EXIT(
        {
            exec::ShardSupervisor supervisor(opts);
            supervisor.run(specs);
        },
        ::testing::ExitedWithCode(1),
        "shard 0 \\(specs \\[0,3\\) of 12\\) failed permanently after "
        "2 attempt\\(s\\): corrupt-output, corrupt-output; last error: "
        "cell 0 \\(gzip/conventional\\): cannot open result-cache "
        "entry: .*\\.json");
}

TEST(ShardSupervisorDeathTest, ExhaustionNamesShardAndSpecRange)
{
    const auto specs = fig5Specs();
    auto opts = baseOptions(uniqueDir("exhaust"));
    opts.faultSpec = "crash@0:1,crash@0:2";
    opts.maxAttempts = 2;
    opts.parallel = 1; // deterministic: shard 0 fails first
    EXPECT_EXIT(
        {
            exec::ShardSupervisor supervisor(opts);
            supervisor.run(specs);
        },
        ::testing::ExitedWithCode(1),
        "shard 0 \\(specs \\[0,3\\) of 12\\) failed permanently after "
        "2 attempt\\(s\\): crash \\(signal 9\\), crash \\(signal 9\\)");
}

TEST(ShardSupervisorDeathTest, PersistentCorruptTraceFailsFastAndTyped)
{
    const std::string trace_dir = uniqueDir("badtraces");
    {
        driver::SweepOptions record_opts;
        record_opts.recordTraceDir = trace_dir;
        driver::SweepEngine recorder(record_opts);
        recorder.run(fig5Specs());
    }
    const auto specs = fig5Specs(trace_dir);

    auto opts = baseOptions(uniqueDir("ctrace-perm"));
    opts.workerCmd = workerCmd({"--trace-dir", trace_dir});
    // corrupt-trace on every attempt of shard 0: exceeds the
    // corruptTraceRetries=1 budget on attempt 2 — long before the
    // generic maxAttempts would give up.
    opts.faultSpec = "corrupt-trace@0:1,corrupt-trace@0:2";
    opts.maxAttempts = 5;
    opts.parallel = 1;
    EXPECT_EXIT(
        {
            exec::ShardSupervisor supervisor(opts);
            supervisor.run(specs);
        },
        ::testing::ExitedWithCode(1),
        "failed permanently after 2 attempt\\(s\\).*corrupt artifact: "
        "trace file .*\\.pptrace: content hash mismatch");
}

TEST(ShardSupervisorDeathTest, CorruptCheckpointFailsFastAndTyped)
{
    // One bit-flipped set in a shared checkpoint directory: the worker
    // that loads it exits with the typed artifact code, and the shard
    // gives up after the corrupt-artifact retry, not maxAttempts.
    const auto specs = fig5Specs("", kSampled);
    const std::string ckpt_dir = uniqueDir("badckpt");
    {
        driver::SweepOptions fill;
        fill.checkpointDir = ckpt_dir;
        driver::SweepEngine(fill).run(specs);
    }
    std::vector<std::filesystem::path> sets;
    for (const auto &e : std::filesystem::directory_iterator(ckpt_dir))
        if (e.path().extension() == ".ppckpt")
            sets.push_back(e.path());
    ASSERT_FALSE(sets.empty());
    const std::filesystem::path victim =
        *std::min_element(sets.begin(), sets.end());
    std::string bytes;
    {
        std::ifstream is(victim, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is), {});
    }
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x01;
    ASSERT_TRUE(writeFileAtomic(victim.string(), bytes));

    auto opts = baseOptions(uniqueDir("badckpt-sharded"));
    opts.workerCmd = workerCmd({"--checkpoint-dir", ckpt_dir}, kSampled);
    opts.maxAttempts = 5;
    opts.parallel = 1;
    EXPECT_EXIT(
        {
            exec::ShardSupervisor supervisor(opts);
            supervisor.run(specs);
        },
        ::testing::ExitedWithCode(1),
        "failed permanently after 2 attempt\\(s\\): corrupt-trace "
        "\\(exit 3\\), corrupt-trace \\(exit 3\\); last error: "
        "corrupt artifact: checkpoint file .*\\.ppckpt: content hash "
        "mismatch");
}

TEST(ShardSupervisorDeathTest, HostileCheckpointSetFailsAsCorruptTraceNotCrash)
{
    // A hash-sound set whose window 0 PC lies past the code image: the
    // worker's validation turns it into a typed Mismatch (exit 3)
    // before Emulator::restore could abort the worker as a crash.
    const auto specs = fig5Specs("", kSampled);
    const std::string ckpt_dir = uniqueDir("hostileckpt");
    {
        driver::SweepOptions fill;
        fill.checkpointDir = ckpt_dir;
        driver::SweepEngine(fill).run(specs);
    }
    std::vector<std::string> sets;
    for (const auto &e : std::filesystem::directory_iterator(ckpt_dir))
        if (e.path().extension() == ".ppckpt")
            sets.push_back(e.path().string());
    ASSERT_FALSE(sets.empty());
    for (const std::string &path : sets) {
        auto set = sampling::WindowCheckpointSet::loadOrThrow(path);
        set.windows[0].arch.pc = std::uint64_t{1} << 40;
        set.store(path);
    }

    auto opts = baseOptions(uniqueDir("hostileckpt-sharded"));
    opts.workerCmd = workerCmd({"--checkpoint-dir", ckpt_dir}, kSampled);
    opts.maxAttempts = 5;
    opts.parallel = 1;
    EXPECT_EXIT(
        {
            exec::ShardSupervisor supervisor(opts);
            supervisor.run(specs);
        },
        ::testing::ExitedWithCode(1),
        "failed permanently after 2 attempt\\(s\\): corrupt-trace "
        "\\(exit 3\\), corrupt-trace \\(exit 3\\); last error: "
        "corrupt artifact: checkpoint file .*\\.ppckpt: window 0: PC "
        "1099511627776 outside the");
}
