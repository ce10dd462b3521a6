/**
 * @file
 * Result-cache and work-stealing benchmark, the evidence behind
 * BENCH_result_cache.json (`pp.bench.result_cache.v1`).
 *
 * Two parts:
 *
 *  - Warm/cold: the full fig5 grid through the SweepEngine twice
 *    against one content-addressed result cache (cache/result_cache.hh).
 *    The cold pass simulates and stores every cell; the warm pass must
 *    execute ZERO simulations, replay every cell's exact emitter bytes,
 *    and produce a byte-identical pp.sweep.v1 document — unscrubbed:
 *    even the host_ms fields replay verbatim from the cache. The
 *    contract is warm >= kWarmSpeedupBound (10x) faster.
 *
 *  - Steal/static: a deliberately cost-skewed matrix — expensive
 *    full-simulation cells clustered contiguously at the front of the
 *    spec list, cheap cells behind — swept by the supervised
 *    multi-process path (exec/shard_supervisor.hh) two ways. "Static"
 *    uses shards == parallel: one contiguous equal-spec-count range per
 *    worker, exactly the old static partition, so the worker owning the
 *    front range serializes the whole sweep. "Steal" uses
 *    kStealShardFactor x parallel smaller shards, which the supervisor
 *    starts most expensive first (exec::leaseOrder), each worker taking
 *    the next as it frees, keeping every worker busy. Both merges must
 *    be byte-identical (modulo *host_ms).
 *
 *    Two speedup figures come out. The *modeled* one list-schedules the
 *    shard costs (exec::specCost) in that same order onto `parallel`
 *    workers — a deterministic makespan ratio, gated at
 *    >= kStealModelBound on every host, that catches scheduling-policy
 *    regressions even on a single-core runner where workers merely
 *    time-slice. The *wall-clock* one is the measured ratio; it is
 *    gated at >= kStealSpeedupBound only when the host really has
 *    `parallel` hardware threads (every hosted CI runner) — on fewer
 *    cores the extra spawns can only cost, never pay.
 *
 *   bench_result_cache [--json PATH] [--check] [--repeat N]
 *                      [--warmup N] [--instructions N] [--parallel N]
 *                      [--heavy-insts N] [--light-insts N]
 *                      [--skip-steal]
 *
 * --check exits non-zero when a bound or an identity contract fails —
 * the CI release-perf job runs it as a regression gate.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "common/parse_number.hh"
#include "driver/grids.hh"
#include "driver/result_sink.hh"
#include "driver/run_matrix.hh"
#include "driver/sweep_engine.hh"
#include "exec/shard.hh"
#include "exec/shard_supervisor.hh"
#include "program/suite.hh"

using namespace pp;

namespace
{

constexpr double kWarmSpeedupBound = 10.0;
constexpr double kStealSpeedupBound = 1.15;
constexpr double kStealModelBound = 1.5;
constexpr std::size_t kStealShardFactor = 4;

double
wallMs(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * The cost-skewed matrix: every expensive cell first. Two benchmarks x
 * the four fig5 schemes at a heavy window lead, the whole suite x two
 * schemes at a light window follows — so an equal-spec-count partition
 * piles nearly all the work onto the first worker.
 */
std::vector<driver::RunSpec>
skewSpecs(std::uint64_t warmup, std::uint64_t heavy, std::uint64_t light)
{
    std::vector<driver::RunSpec> specs;
    {
        auto suite = program::spec2000Suite();
        suite.resize(2);
        driver::RunMatrix m;
        m.benchmarks(std::move(suite))
            .ifConvert(false)
            .window(warmup, heavy);
        for (auto &s : driver::fig5Schemes())
            m.addScheme(s.name, s.scheme);
        for (auto &s : m.specs())
            specs.push_back(std::move(s));
    }
    {
        driver::RunMatrix m;
        m.benchmarks(program::spec2000Suite())
            .ifConvert(false)
            .window(warmup, light);
        auto schemes = driver::fig5Schemes();
        m.addScheme(schemes[0].name, schemes[0].scheme);
        m.addScheme(schemes[1].name, schemes[1].scheme);
        for (auto &s : m.specs())
            specs.push_back(std::move(s));
    }
    return specs;
}

/**
 * Makespan, in specCost units, of the supervisor's schedule of
 * `shards` contiguous shards on `workers` pump threads: shards start in
 * exec::leaseOrder order, each on whichever worker frees first. The
 * static partition is the degenerate case workers == shards.
 */
std::uint64_t
modeledMakespan(const std::vector<driver::RunSpec> &specs,
                std::size_t shards, unsigned workers)
{
    const auto ranges = exec::shardRanges(specs.size(), shards);
    std::vector<std::uint64_t> load(std::max(workers, 1u), 0);
    for (const std::size_t s : exec::leaseOrder(specs, ranges)) {
        std::uint64_t cost = 0;
        for (std::size_t i = ranges[s].first; i < ranges[s].second; ++i)
            cost += exec::specCost(specs[i]);
        *std::min_element(load.begin(), load.end()) += cost;
    }
    return *std::max_element(load.begin(), load.end());
}

std::string
selfBinary(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return argv0;
    buf[n] = '\0';
    return buf;
}

struct WarmColdResult
{
    std::size_t runs = 0;
    double coldMs = 0.0;
    double warmMs = 0.0; ///< best-of-repeats
    double speedup = 0.0;
    std::uint64_t warmHits = 0;
    std::uint64_t warmSimulated = 0;
    bool identical = false;
    bool pass = false;
};

struct StealResult
{
    std::size_t specs = 0;
    std::size_t heavyCells = 0;
    unsigned parallel = 0;
    std::size_t staticShards = 0;
    std::size_t stealShards = 0;
    double staticMs = 0.0; ///< best-of-repeats
    double stealMs = 0.0;  ///< best-of-repeats
    double speedup = 0.0;
    std::uint64_t modeledStaticCost = 0; ///< static makespan, cost units
    std::uint64_t modeledStealCost = 0;  ///< steal makespan, cost units
    double modeledSpeedup = 0.0;
    bool wallGateEnforced = false; ///< host had >= parallel hw threads
    bool identical = false;
    bool pass = false;
};

WarmColdResult
runWarmCold(std::uint64_t warmup, std::uint64_t measure,
            const std::string &cache_dir, unsigned repeats)
{
    driver::RunMatrix m;
    m.benchmarks(program::spec2000Suite())
        .ifConvert(false)
        .window(warmup, measure);
    for (auto &s : driver::fig5Schemes())
        m.addScheme(s.name, s.scheme);
    const std::vector<driver::RunSpec> specs = m.specs();

    std::filesystem::remove_all(cache_dir);
    driver::SweepOptions opts;
    opts.resultCacheDir = cache_dir;

    WarmColdResult r;
    r.runs = specs.size();

    std::string cold_doc;
    {
        driver::SweepEngine engine(opts);
        const auto t0 = std::chrono::steady_clock::now();
        const auto results = engine.run(specs);
        r.coldMs = wallMs(t0);
        cold_doc = driver::JsonSink{engine.counters()}.toString(specs,
                                                                results);
        std::fprintf(stderr, ".");
    }

    std::string warm_doc;
    for (unsigned i = 0; i < repeats; ++i) {
        driver::SweepEngine engine(opts);
        const auto t0 = std::chrono::steady_clock::now();
        const auto results = engine.run(specs);
        const double ms = wallMs(t0);
        if (r.warmMs == 0.0 || ms < r.warmMs)
            r.warmMs = ms;
        if (warm_doc.empty()) {
            warm_doc = driver::JsonSink{engine.counters()}.toString(
                specs, results);
            r.warmHits = engine.resultCacheUse().hits;
            r.warmSimulated = engine.resultCacheUse().simulated;
        }
        std::fprintf(stderr, ".");
    }

    r.speedup = r.coldMs / r.warmMs;
    // Unscrubbed on purpose: a fully warm sweep replays every cell's
    // exact emitter bytes, host_ms included.
    r.identical = warm_doc == cold_doc;
    r.pass = r.identical && r.warmSimulated == 0 &&
        r.warmHits == specs.size() && r.speedup >= kWarmSpeedupBound;
    return r;
}

StealResult
runStealStatic(const std::string &self, std::uint64_t warmup,
               std::uint64_t heavy, std::uint64_t light,
               unsigned parallel, const std::string &work_root,
               unsigned repeats)
{
    const std::vector<driver::RunSpec> specs =
        skewSpecs(warmup, heavy, light);

    StealResult r;
    r.specs = specs.size();
    r.heavyCells = 8;
    r.parallel = parallel;
    r.staticShards = parallel;
    r.stealShards = kStealShardFactor * parallel;

    const std::vector<std::string> worker_cmd = {
        self,
        "--skew-worker",
        "--warmup",
        std::to_string(warmup),
        "--heavy-insts",
        std::to_string(heavy),
        "--light-insts",
        std::to_string(light)};

    auto sweep = [&](std::size_t shards, const std::string &dir,
                     double &best_ms) {
        exec::ShardOptions sopts;
        sopts.shards = shards;
        sopts.parallel = parallel;
        sopts.resultCacheDir = dir;
        sopts.workerCmd = worker_cmd;
        std::vector<sim::RunResult> results;
        for (unsigned i = 0; i < repeats; ++i) {
            std::filesystem::remove_all(dir);
            exec::ShardSupervisor supervisor(sopts);
            const auto t0 = std::chrono::steady_clock::now();
            results = supervisor.run(specs);
            const double ms = wallMs(t0);
            if (best_ms == 0.0 || ms < best_ms)
                best_ms = ms;
            std::fprintf(stderr, ".");
        }
        return driver::scrubHostMs(
            driver::JsonSink{driver::sweepCountersFor(specs, false)}
                .toString(specs, results));
    };

    const std::string static_doc =
        sweep(r.staticShards, work_root + "/static", r.staticMs);
    const std::string steal_doc =
        sweep(r.stealShards, work_root + "/steal", r.stealMs);

    r.speedup = r.staticMs / r.stealMs;
    r.modeledStaticCost = modeledMakespan(specs, r.staticShards, parallel);
    r.modeledStealCost = modeledMakespan(specs, r.stealShards, parallel);
    r.modeledSpeedup = static_cast<double>(r.modeledStaticCost) /
        static_cast<double>(r.modeledStealCost);
    r.wallGateEnforced = std::thread::hardware_concurrency() >= parallel;
    r.identical = static_doc == steal_doc;
    r.pass = r.identical && r.modeledSpeedup >= kStealModelBound &&
        (!r.wallGateEnforced || r.speedup >= kStealSpeedupBound);
    return r;
}

void
writeJson(const std::string &path, const WarmColdResult &wc,
          const StealResult *steal, unsigned repeats)
{
    driver::withOutputStream(path, [&](std::ostream &os) {
        driver::JsonWriter w(os);
        w.beginObject();
        w.field("schema", "pp.bench.result_cache.v1");
        w.field("repeats", std::uint64_t(repeats));
        w.key("warm_cold");
        w.beginObject();
        w.field("grid", "fig5");
        w.field("runs", std::uint64_t(wc.runs));
        w.field("cold_host_ms", wc.coldMs);
        w.field("warm_host_ms", wc.warmMs);
        w.field("speedup", wc.speedup);
        w.field("speedup_bound", kWarmSpeedupBound);
        w.field("warm_cache_hits", wc.warmHits);
        w.field("warm_runs_simulated", wc.warmSimulated);
        w.field("byte_identical_unscrubbed", wc.identical);
        w.field("pass", wc.pass);
        w.endObject();
        if (steal != nullptr) {
            w.key("steal_static");
            w.beginObject();
            w.field("specs", std::uint64_t(steal->specs));
            w.field("heavy_cells", std::uint64_t(steal->heavyCells));
            w.field("parallel", std::uint64_t(steal->parallel));
            w.field("static_shards", std::uint64_t(steal->staticShards));
            w.field("steal_shards", std::uint64_t(steal->stealShards));
            w.field("static_host_ms", steal->staticMs);
            w.field("steal_host_ms", steal->stealMs);
            w.field("speedup", steal->speedup);
            w.field("speedup_bound", kStealSpeedupBound);
            w.field("wall_gate_enforced", steal->wallGateEnforced);
            w.field("modeled_static_cost", steal->modeledStaticCost);
            w.field("modeled_steal_cost", steal->modeledStealCost);
            w.field("modeled_speedup", steal->modeledSpeedup);
            w.field("modeled_speedup_bound", kStealModelBound);
            w.field("byte_identical_scrubbed", steal->identical);
            w.field("pass", steal->pass);
            w.endObject();
        }
        w.endObject();
        os << "\n";
    });
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_result_cache.json";
    bool check = false;
    bool skip_steal = false;
    bool skew_worker = false;
    unsigned repeats = 2;
    unsigned parallel = 4;
    std::uint64_t warmup = 1000;
    std::uint64_t measure = 5000;
    std::uint64_t heavy = 200000;
    std::uint64_t light = 4000;
    exec::ShardRange shard_range;
    std::string result_cache_dir;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto need_value = [&](void) -> const char * {
            if (i + 1 >= argc)
                fatal(std::string("missing value for ") + a);
            return argv[++i];
        };
        if (std::strcmp(a, "--json") == 0) {
            json_path = need_value();
        } else if (std::strcmp(a, "--check") == 0) {
            check = true;
        } else if (std::strcmp(a, "--skip-steal") == 0) {
            skip_steal = true;
        } else if (std::strcmp(a, "--repeat") == 0) {
            repeats =
                static_cast<unsigned>(parseU64(a, need_value()));
            if (repeats == 0)
                fatal("--repeat must be at least 1");
        } else if (std::strcmp(a, "--parallel") == 0) {
            parallel =
                static_cast<unsigned>(parseU64(a, need_value()));
            if (parallel == 0)
                fatal("--parallel must be at least 1");
        } else if (std::strcmp(a, "--warmup") == 0) {
            warmup = parseU64(a, need_value());
        } else if (std::strcmp(a, "--instructions") == 0) {
            measure = parseU64(a, need_value());
        } else if (std::strcmp(a, "--heavy-insts") == 0) {
            heavy = parseU64(a, need_value());
        } else if (std::strcmp(a, "--light-insts") == 0) {
            light = parseU64(a, need_value());
        } else if (std::strcmp(a, "--skew-worker") == 0) {
            // Hidden: this invocation is a supervisor's self-exec'd
            // shard worker over the skewed matrix, with the flags every
            // shard worker gets appended.
            skew_worker = true;
        } else if (std::strcmp(a, "--shard-range") == 0) {
            shard_range = exec::parseShardRange(need_value());
        } else if (std::strcmp(a, "--result-cache-dir") == 0) {
            result_cache_dir = need_value();
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            std::fprintf(stderr,
                "%s — result-cache + work-stealing benchmark\n\n"
                "  --json PATH       output document (default "
                "BENCH_result_cache.json, \"-\" = stdout)\n"
                "  --check           exit non-zero when a bound or an "
                "identity contract fails\n"
                "  --repeat N        timed repeats, best wins (default "
                "2)\n"
                "  --warmup N        warm/cold grid warmup (default "
                "1000)\n"
                "  --instructions N  warm/cold grid measure window "
                "(default 5000)\n"
                "  --parallel N      concurrent shard workers for the "
                "steal comparison (default 4)\n"
                "  --heavy-insts N   expensive-cell window of the skewed "
                "matrix (default 200000)\n"
                "  --light-insts N   cheap-cell window of the skewed "
                "matrix (default 4000)\n"
                "  --skip-steal      warm/cold comparison only\n",
                argv[0]);
            return 0;
        } else {
            fatal(std::string("unknown argument: ") + a);
        }
    }

    if (skew_worker) {
        exec::runShardWorker(skewSpecs(warmup, heavy, light), shard_range,
                             1, "", result_cache_dir);
        return 0;
    }

    const std::string scratch_root =
        json_path == "-" ? "bench_result_cache.work" : json_path + ".work";

    const WarmColdResult wc = runWarmCold(
        warmup, measure, scratch_root + "/rcache", repeats);
    StealResult steal;
    if (!skip_steal) {
        steal = runStealStatic(selfBinary(argv[0]), warmup, heavy, light,
                               parallel, scratch_root, repeats);
    }
    std::fprintf(stderr, "\n");

    std::FILE *report = json_path == "-" ? stderr : stdout;
    std::fprintf(report,
        "\n== result cache, fig5 grid (%zu runs, best of %u) ==\n"
        "cold %.1f ms -> warm %.1f ms: %.2fx (bound %.1fx)\n"
        "warm pass: %llu cache hit(s), %llu run(s) simulated, "
        "byte-identical (unscrubbed): %s\n"
        "warm/cold: %s\n",
        wc.runs, repeats, wc.coldMs, wc.warmMs, wc.speedup,
        kWarmSpeedupBound,
        static_cast<unsigned long long>(wc.warmHits),
        static_cast<unsigned long long>(wc.warmSimulated),
        wc.identical ? "yes" : "NO", wc.pass ? "PASS" : "FAIL");
    bool all_pass = wc.pass;

    if (!skip_steal) {
        std::fprintf(report,
            "\n== work stealing, cost-skewed matrix (%zu specs, %zu "
            "heavy, %u workers, best of %u) ==\n"
            "static (%zu shards) %.1f ms -> steal (%zu shards) %.1f ms: "
            "%.2fx wall (bound %.2fx, %s)\n"
            "modeled makespan %llu -> %llu cost units: %.2fx "
            "(bound %.2fx)\n"
            "merged byte-identical (scrubbed): %s\n"
            "steal/static: %s\n",
            steal.specs, steal.heavyCells, steal.parallel, repeats,
            steal.staticShards, steal.staticMs, steal.stealShards,
            steal.stealMs, steal.speedup, kStealSpeedupBound,
            steal.wallGateEnforced
                ? "enforced"
                : "not enforced: too few hardware threads",
            static_cast<unsigned long long>(steal.modeledStaticCost),
            static_cast<unsigned long long>(steal.modeledStealCost),
            steal.modeledSpeedup, kStealModelBound,
            steal.identical ? "yes" : "NO",
            steal.pass ? "PASS" : "FAIL");
        all_pass = all_pass && steal.pass;
    }

    writeJson(json_path, wc, skip_steal ? nullptr : &steal, repeats);

    if (check && !all_pass) {
        std::fprintf(stderr, "bench_result_cache: bounds FAILED\n");
        return 1;
    }
    return 0;
}
