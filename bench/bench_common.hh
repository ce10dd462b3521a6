/**
 * @file
 * Shared helpers for the experiment harnesses: the common command-line
 * interface (--threads/--json/--csv/--filter/--stress), sweep execution
 * on the parallel driver (driver::RunMatrix + driver::SweepEngine), and
 * paper-style table printing.
 *
 * With --shards N a harness becomes its own fault-tolerant supervisor:
 * it re-execs itself as shard workers (the hidden --shard-range flag,
 * plus the --result-cache-dir the workers deliver through) under
 * exec::ShardSupervisor, with retry/timeout/backoff and per-cell
 * resume — the merged sinks are byte-identical (modulo *host_ms) to
 * the single-process sweep. --inject-fault drives the deterministic
 * fault harness for testing the failure paths.
 */

#ifndef PP_BENCH_BENCH_COMMON_HH
#define PP_BENCH_BENCH_COMMON_HH

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/atomic_io.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "driver/replay_sink.hh"
#include "driver/result_sink.hh"
#include "driver/run_matrix.hh"
#include "driver/sweep_engine.hh"
#include "replay/predictor_replay.hh"
#include "exec/shard.hh"
#include "exec/shard_supervisor.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"
#include "program/suite.hh"
#include "sim/simulator.hh"

namespace pp
{
namespace bench
{

/** One column of an experiment: a named scheme configuration. */
struct SchemeColumn
{
    std::string name;
    sim::SchemeConfig cfg;
};

/** Options every harness accepts. */
struct BenchOptions
{
    unsigned threads = 0;       ///< 0 = one per hardware thread
    std::string jsonPath;       ///< write JSON results here ("-" = stdout)
    std::string csvPath;        ///< write CSV results here ("-" = stdout)
    std::string filter;         ///< benchmark-name regex
    bool stress = false;        ///< append program::stressSuite()
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
    std::string recordTraceDir; ///< record one trace per binary here
    std::string traceDir;       ///< replay traces from here (no codegen)
    std::uint64_t smartsPeriod = 0; ///< >0: sample every cell (smarts(N))
    std::string checkpointDir;  ///< on-disk window-checkpoint cache
    std::string resultCacheDir; ///< content-addressed result cache
    std::string traceEventsPath;///< write a Chrome trace-event span file
    bool progress = false;      ///< live progress line on stderr
    std::string metricsJsonPath;///< dump the metrics snapshot here

    /** @name Multi-process execution (--shards; see file comment) */
    /// @{
    std::size_t shards = 0;     ///< >0: supervise N self-exec'd workers
    std::string injectFault;    ///< fault plan forwarded via PP_FAULT
    std::uint64_t shardTimeoutMs = 120000;
    unsigned shardMaxAttempts = 3;
    /// @}

    /** @name Worker mode (the hidden flag the supervisor appends) */
    /// @{
    bool workerMode = false;    ///< --shard-range given: run one shard
    exec::ShardRange shardRange;
    /// @}

    /** argv[0] + the matrix-defining flags, for self-exec workers. */
    std::vector<std::string> forwardArgs;
};

inline void
printUsage(const char *prog, const char *what, bool sweep_flags)
{
    std::fprintf(stderr, "%s — %s\n\n", prog, what);
    if (sweep_flags) {
        std::fprintf(stderr,
            "  --threads N        worker threads (default: hardware"
            " threads; 1 = serial)\n");
    }
    std::fprintf(stderr,
        "  --json PATH        write results as JSON (\"-\" for"
        " stdout)\n");
    if (sweep_flags) {
        std::fprintf(stderr,
            "  --csv PATH         write results as CSV (\"-\" for"
            " stdout)\n"
            "  --filter REGEX     sweep only benchmarks matching REGEX\n"
            "  --stress           include the stress presets (ifcmax,"
            " aliasstorm)\n"
            "  --warmup N         warmup instructions (default:"
            " REPRO_WARMUP or 150000)\n"
            "  --instructions N   measured instructions (default:"
            " REPRO_INSTRUCTIONS or 1000000)\n"
            "  --record-traces D  record one workload trace per binary"
            " into directory D\n"
            "  --trace-dir D      replay workloads from the traces in"
            " directory D\n"
            "                     (generation code paths disabled;"
            " byte-identical results)\n"
            "  --smarts N         run every cell sampled under"
            " SamplingPolicy::smarts(N)\n"
            "                     (period N; checkpoint-parallel when the"
            " policy has a gap)\n"
            "  --checkpoint-dir D cache window-checkpoint sets (pp.ckpt.v2)"
            " in directory D\n"
            "                     across runs and shard workers"
            " (byte-identical results)\n"
            "  --result-cache-dir D  content-addressed result cache"
            " (pp.rcache.v1) in D:\n"
            "                     warm reruns replay exact result bytes"
            " instead of\n"
            "                     simulating (shared across runs; --shards"
            " workers\n"
            "                     deliver their cells here, default"
            " <json>.shards)\n"
            "  --trace-events F   write per-run host-time spans as Chrome"
            " trace-event JSON\n"
            "                     (load F in chrome://tracing or"
            " ui.perfetto.dev)\n"
            "  --progress         live progress line (runs done/total,"
            " ETA) on stderr\n"
            "  --shards N         run the sweep across N supervised"
            " worker processes\n"
            "                     (crash/timeout retries; merged output"
            " byte-identical\n"
            "                     to a single-process run modulo"
            " *host_ms)\n"
            "  --inject-fault S   deterministic worker fault plan"
            " (testing), e.g.\n"
            "                     crash@0:1,hang@1:1 — classes: crash,"
            " hang, truncate,\n"
            "                     corrupt, corrupt-trace\n"
            "  --shard-timeout-ms N   per-worker-attempt deadline"
            " (default 120000)\n"
            "  --shard-max-attempts N attempts per shard (default 3)\n"
            "  --metrics-json F   write the metrics registry snapshot"
            " (counters,\n"
            "                     per-phase host-time histograms) as"
            " JSON to F\n");
    }
    std::fprintf(stderr,
        "  --verbose          debug-level diagnostics (same as"
        " PP_LOG_LEVEL=debug)\n");
    std::fprintf(stderr, "  --help             this text\n");
}

/**
 * Remove every occurrence of the valueless @p flag from (argc, argv)
 * before parseBenchArgs() sees it (which fatal()s on unknown flags);
 * returns whether it was present. Lets a harness layer its own
 * switches (bench_predictor_replay's --serial, --check) on top of the
 * shared flag set. A switch that changes the swept matrix must also be
 * appended to forwardArgs, or --shards workers sweep a different one.
 */
inline bool
stripFlag(int &argc, char **argv, const char *flag)
{
    bool found = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            found = true;
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    return found;
}

/**
 * Remove @p flag and its value from (argc, argv); returns the value of
 * the last occurrence, or @p fallback when absent. fatal()s on a
 * trailing flag with no value.
 */
inline std::string
stripFlagValue(int &argc, char **argv, const char *flag,
               const std::string &fallback = "")
{
    std::string value = fallback;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            if (i + 1 >= argc)
                fatal(std::string("missing value for ") + flag);
            value = argv[++i];
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    return value;
}

/** Strict base-10 parse; fatal() on garbage, partial parse or overflow. */
inline std::uint64_t
parseU64(const char *flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE) {
        fatal(std::string("invalid number for ") + flag + ": '" + value +
              "'");
    }
    return v;
}

/**
 * Parse the shared flags; exits on --help or bad usage. Harnesses that
 * run no sweep (bench_table1_config) pass @p sweep_flags = false and
 * accept only --json/--help, so no advertised flag is silently ignored.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv, const char *what,
               bool sweep_flags = true)
{
    BenchOptions opts;
    opts.warmup = sim::defaultWarmup();
    opts.measure = sim::defaultInstructions();
    opts.forwardArgs.push_back(argv[0]);

    auto need_value = [&](int i) -> const char * {
        if (i + 1 >= argc) {
            printUsage(argv[0], what, sweep_flags);
            fatal(std::string("missing value for ") + argv[i]);
        }
        return argv[i + 1];
    };
    // Matrix-defining flags replay into self-exec'd shard workers so
    // both sides enumerate the identical spec list; sink/progress/shard
    // flags deliberately do not forward.
    auto forward = [&](const char *flag, const char *value) {
        opts.forwardArgs.push_back(flag);
        if (value != nullptr)
            opts.forwardArgs.push_back(value);
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (sweep_flags && std::strcmp(a, "--threads") == 0) {
            opts.threads =
                static_cast<unsigned>(parseU64(a, need_value(i)));
            forward(a, need_value(i));
            ++i;
        } else if (std::strcmp(a, "--json") == 0) {
            opts.jsonPath = need_value(i);
            ++i;
        } else if (sweep_flags && std::strcmp(a, "--csv") == 0) {
            opts.csvPath = need_value(i);
            ++i;
        } else if (sweep_flags && std::strcmp(a, "--filter") == 0) {
            opts.filter = need_value(i);
            forward(a, need_value(i));
            ++i;
        } else if (sweep_flags && std::strcmp(a, "--stress") == 0) {
            opts.stress = true;
            forward(a, nullptr);
        } else if (sweep_flags && std::strcmp(a, "--warmup") == 0) {
            opts.warmup = parseU64(a, need_value(i));
            forward(a, need_value(i));
            ++i;
        } else if (sweep_flags &&
                   std::strcmp(a, "--instructions") == 0) {
            opts.measure = parseU64(a, need_value(i));
            forward(a, need_value(i));
            ++i;
        } else if (sweep_flags &&
                   std::strcmp(a, "--record-traces") == 0) {
            opts.recordTraceDir = need_value(i);
            ++i;
        } else if (sweep_flags && std::strcmp(a, "--trace-dir") == 0) {
            opts.traceDir = need_value(i);
            forward(a, need_value(i));
            ++i;
        } else if (sweep_flags && std::strcmp(a, "--smarts") == 0) {
            opts.smartsPeriod = parseU64(a, need_value(i));
            forward(a, need_value(i));
            ++i;
        } else if (sweep_flags &&
                   std::strcmp(a, "--checkpoint-dir") == 0) {
            opts.checkpointDir = need_value(i);
            forward(a, need_value(i));
            ++i;
        } else if (sweep_flags &&
                   std::strcmp(a, "--result-cache-dir") == 0) {
            // Not forwarded: the supervisor appends the directory its
            // workers deliver through.
            opts.resultCacheDir = need_value(i);
            ++i;
        } else if (sweep_flags && std::strcmp(a, "--trace-events") == 0) {
            opts.traceEventsPath = need_value(i);
            ++i;
        } else if (sweep_flags && std::strcmp(a, "--progress") == 0) {
            opts.progress = true;
        } else if (sweep_flags && std::strcmp(a, "--shards") == 0) {
            opts.shards = parseU64(a, need_value(i));
            ++i;
        } else if (sweep_flags &&
                   std::strcmp(a, "--inject-fault") == 0) {
            opts.injectFault = need_value(i);
            ++i;
        } else if (sweep_flags &&
                   std::strcmp(a, "--shard-timeout-ms") == 0) {
            opts.shardTimeoutMs = parseU64(a, need_value(i));
            ++i;
        } else if (sweep_flags &&
                   std::strcmp(a, "--shard-max-attempts") == 0) {
            opts.shardMaxAttempts =
                static_cast<unsigned>(parseU64(a, need_value(i)));
            ++i;
        } else if (sweep_flags &&
                   std::strcmp(a, "--metrics-json") == 0) {
            opts.metricsJsonPath = need_value(i);
            ++i;
        } else if (sweep_flags &&
                   std::strcmp(a, "--shard-range") == 0) {
            // Hidden: appended by the supervisor to its own argv;
            // switches this invocation into worker mode.
            opts.shardRange = exec::parseShardRange(need_value(i));
            opts.workerMode = true;
            ++i;
        } else if (std::strcmp(a, "--verbose") == 0) {
            setLogLevel(LogLevel::Debug);
            forward(a, nullptr);
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            printUsage(argv[0], what, sweep_flags);
            std::exit(0);
        } else {
            printUsage(argv[0], what, sweep_flags);
            fatal(std::string("unknown argument: ") + a);
        }
    }
    if (!opts.recordTraceDir.empty() && !opts.traceDir.empty())
        fatal("--record-traces and --trace-dir are mutually exclusive");
    if (opts.shards > 0 && !opts.recordTraceDir.empty()) {
        fatal("--record-traces cannot run under --shards: record a "
              "clean single-process run first, then sweep the traces "
              "with --trace-dir --shards");
    }
    if (opts.shards > 0 && opts.workerMode)
        fatal("--shards and --shard-range are mutually exclusive");
    return opts;
}

/**
 * Where the human-readable report goes: stdout normally, stderr when a
 * machine-readable sink targets stdout — "--json - | jq ." must see
 * only the document.
 */
inline std::FILE *
reportFile(const BenchOptions &opts)
{
    return opts.jsonPath == "-" || opts.csvPath == "-" ? stderr : stdout;
}

/** Stream twin of reportFile() for TextTable printing. */
inline std::ostream &
reportStream(const BenchOptions &opts)
{
    return opts.jsonPath == "-" || opts.csvPath == "-" ? std::cerr
                                                       : std::cout;
}

/**
 * @name Trace-event capture around a sweep
 * beginTraceEvents() arms the global tracer when --trace-events was
 * given; endTraceEvents() stops it and writes the span file. Harnesses
 * that call the engine directly (config_axis_sweep) bracket their
 * engine.run() with the pair; sweepSuite() does it internally.
 */
/// @{
inline void
beginTraceEvents(const BenchOptions &opts)
{
    if (!opts.traceEventsPath.empty())
        obs::tracer().start();
}

inline void
endTraceEvents(const BenchOptions &opts)
{
    if (opts.traceEventsPath.empty())
        return;
    obs::tracer().stop();
    if (!obs::tracer().writeFile(opts.traceEventsPath))
        fatal("cannot write trace-event file: " + opts.traceEventsPath);
    informf("trace events written to %s (load in chrome://tracing or "
            "ui.perfetto.dev)", opts.traceEventsPath.c_str());
}
/// @}

/** Dump the metrics registry snapshot when --metrics-json was given. */
inline void
writeMetricsSnapshot(const BenchOptions &opts)
{
    if (opts.metricsJsonPath.empty())
        return;
    std::string error;
    if (!writeFileAtomic(opts.metricsJsonPath,
                         obs::metrics().snapshot().toJson() + "\n",
                         &error))
        fatal("cannot write metrics snapshot: " + error);
    informf("metrics snapshot written to %s",
            opts.metricsJsonPath.c_str());
}

/** Results matrix: result[benchmark][column]. */
struct SweepResult
{
    std::vector<std::string> benchmarks;
    std::vector<std::string> columns;
    std::vector<std::vector<sim::RunResult>> results;

    /** Arithmetic mean of a metric across benchmarks for column @p c. */
    double
    mean(std::size_t c, double (*metric)(const sim::RunResult &)) const
    {
        double sum = 0.0;
        for (const auto &row : results)
            sum += metric(row[c]);
        return sum / static_cast<double>(results.size());
    }
};

/**
 * Emit the requested sinks for a finished sweep. With @p counters the
 * JSON summary reports the engine's shared-cache statistics.
 */
inline void
writeSinks(const BenchOptions &opts,
           const std::vector<driver::RunSpec> &specs,
           const std::vector<sim::RunResult> &results,
           const driver::SweepCounters *counters = nullptr)
{
    auto emit = [&](const driver::ResultSink &sink,
                    const std::string &path) {
        if (!path.empty())
            sink.writeFile(path, specs, results);
    };
    if (counters != nullptr)
        emit(driver::JsonSink{*counters}, opts.jsonPath);
    else
        emit(driver::JsonSink{}, opts.jsonPath);
    emit(driver::CsvSink{}, opts.csvPath);
}

/**
 * Run every benchmark of @p suite under every scheme column through the
 * parallel sweep engine. The binary for each benchmark is generated
 * once and shared across columns and threads; results are ordered
 * deterministically whatever the thread count.
 */
inline SweepResult
sweepSuite(const BenchOptions &opts,
           std::vector<program::BenchmarkProfile> suite, bool if_convert,
           const std::vector<SchemeColumn> &columns)
{
    if (opts.stress)
        for (auto &p : program::stressSuite())
            suite.push_back(std::move(p));

    driver::RunMatrix matrix;
    matrix.benchmarks(std::move(suite))
        .ifConvert(if_convert)
        .window(opts.warmup, opts.measure)
        .filterBenchmarks(opts.filter);
    for (const auto &col : columns)
        matrix.addScheme(col.name, col.cfg);
    if (opts.smartsPeriod > 0) {
        matrix.addSampling(
            "smarts",
            sampling::SamplingPolicy::smarts(opts.smartsPeriod));
    }

    std::vector<driver::RunSpec> specs = matrix.specs();
    if (specs.empty())
        fatal("sweep is empty (filter matched no benchmarks?)");
    driver::applyTraceDir(specs, opts.traceDir);

    // Worker mode: this process is a supervisor's self-exec'd child.
    // Execute the assigned spec range into the result cache and exit
    // before any report/sink path runs.
    if (opts.workerMode) {
        exec::runShardWorker(specs, opts.shardRange, opts.threads,
                             opts.checkpointDir, opts.resultCacheDir);
        std::exit(0);
    }

    std::vector<sim::RunResult> results;
    driver::SweepCounters counters;
    if (opts.shards > 0) {
        exec::ShardOptions shard_opts;
        shard_opts.shards = opts.shards;
        shard_opts.timeoutMs = opts.shardTimeoutMs;
        shard_opts.maxAttempts = opts.shardMaxAttempts;
        shard_opts.faultSpec = opts.injectFault;
        shard_opts.resultCacheDir = !opts.resultCacheDir.empty()
            ? opts.resultCacheDir
            : (!opts.jsonPath.empty() && opts.jsonPath != "-"
                   ? opts.jsonPath + ".shards"
                   : "shards");
        shard_opts.workerCmd = opts.forwardArgs;
        exec::ShardSupervisor supervisor(shard_opts);
        informf("sweep: %zu runs across %zu shard worker(s)",
                specs.size(),
                std::min(opts.shards, specs.size()));
        beginTraceEvents(opts);
        results = supervisor.run(specs);
        endTraceEvents(opts);
        // Summary counters are a pure function of the spec list, so
        // the merged document matches a single-process run's bytes.
        counters = driver::sweepCountersFor(specs, false);
    } else {
        driver::SweepOptions sweep_opts;
        sweep_opts.threads = opts.threads;
        sweep_opts.progress = opts.progress;
        sweep_opts.recordTraceDir = opts.recordTraceDir;
        sweep_opts.checkpointDir = opts.checkpointDir;
        sweep_opts.resultCacheDir = opts.resultCacheDir;
        driver::SweepEngine engine(sweep_opts);
        informf("sweep: %zu runs, %zu binaries", specs.size(),
                specs.size() / columns.size());
        beginTraceEvents(opts);
        results = engine.run(specs);
        endTraceEvents(opts);
        counters = engine.counters();
    }

    writeSinks(opts, specs, results, &counters);
    writeMetricsSnapshot(opts);

    // Reshape into the benchmark × column table the reports consume.
    // specs() enumerates benchmark-major then scheme, so rows are
    // contiguous.
    SweepResult out;
    for (const auto &col : columns)
        out.columns.push_back(col.name);
    for (std::size_t i = 0; i < specs.size(); i += columns.size()) {
        out.benchmarks.push_back(specs[i].profile.name);
        std::vector<sim::RunResult> row;
        for (std::size_t c = 0; c < columns.size(); ++c)
            row.push_back(results[i + c]);
        out.results.push_back(std::move(row));
    }
    return out;
}

/**
 * Run a predictor-replay sweep (replay/predictor_replay.hh) through the
 * engine: apply the shared options (stress programs, window, filter,
 * traces, threads) to @p matrix — whose benchmarks and configs the
 * harness has set — and emit the pp.replay.v1 sink when --json was
 * given. Replay is a predictor-tables-only tier, so the timing/sampling
 * flags of the full-simulation sweeps (--csv, --smarts,
 * --checkpoint-dir, --shards) are rejected rather than silently
 * ignored.
 */
inline std::vector<replay::ReplayWorkloadResult>
replaySweep(const BenchOptions &opts, replay::ReplayMatrix &matrix)
{
    if (!opts.csvPath.empty())
        fatal("--csv writes full-simulation results; the replay tier"
              " writes --json only");
    if (opts.smartsPeriod > 0 || !opts.checkpointDir.empty())
        fatal("--smarts/--checkpoint-dir are sampling flags; the replay"
              " tier has no timing windows");
    if (opts.shards > 0 || opts.workerMode)
        fatal("--shards is not supported for replay sweeps yet");

    if (opts.stress)
        for (auto &p : program::stressSuite())
            matrix.addBenchmark(std::move(p));
    matrix.window(opts.warmup, opts.measure)
        .filterBenchmarks(opts.filter);
    std::vector<replay::ReplayWorkloadSpec> workloads =
        matrix.workloads();
    if (workloads.empty())
        fatal("replay sweep is empty (filter matched no benchmarks?)");
    if (matrix.configs().empty())
        fatal("replay sweep has no predictor configs");
    driver::applyTraceDir(workloads, opts.traceDir);

    driver::SweepOptions sweep_opts;
    sweep_opts.threads = opts.threads;
    sweep_opts.progress = opts.progress;
    sweep_opts.recordTraceDir = opts.recordTraceDir;
    sweep_opts.resultCacheDir = opts.resultCacheDir;
    driver::SweepEngine engine(sweep_opts);
    informf("replay: %zu workloads x %zu configs, one stream pass each",
            workloads.size(), matrix.configs().size());
    beginTraceEvents(opts);
    std::vector<replay::ReplayWorkloadResult> results =
        engine.runReplay(workloads, matrix.configs());
    endTraceEvents(opts);

    if (!opts.jsonPath.empty())
        driver::writeReplayJsonFile(opts.jsonPath, results);
    writeMetricsSnapshot(opts);
    return results;
}

/** Print a "mispred-rate per benchmark per scheme" table plus averages. */
inline void
printMispredTable(const BenchOptions &opts, const SweepResult &sweep,
                  const std::string &title)
{
    TextTable t;
    std::vector<std::string> header = {"benchmark"};
    for (const auto &c : sweep.columns)
        header.push_back(c + " miss%");
    t.setHeader(header);

    std::vector<double> sums(sweep.columns.size(), 0.0);
    for (std::size_t b = 0; b < sweep.benchmarks.size(); ++b) {
        std::vector<double> vals;
        for (std::size_t c = 0; c < sweep.columns.size(); ++c) {
            vals.push_back(sweep.results[b][c].mispredRatePct);
            sums[c] += sweep.results[b][c].mispredRatePct;
        }
        t.addRow(sweep.benchmarks[b], vals);
    }
    std::vector<double> avgs;
    for (double s : sums)
        avgs.push_back(s / static_cast<double>(sweep.benchmarks.size()));
    t.addRow("AVERAGE", avgs);

    std::fprintf(reportFile(opts), "\n== %s ==\n", title.c_str());
    t.print(reportStream(opts));
}

} // namespace bench
} // namespace pp

#endif // PP_BENCH_BENCH_COMMON_HH
