/**
 * @file
 * Simulator-throughput benchmark: host-side KIPS (simulated
 * kilo-instructions per host second) per (benchmark, scheme) workload,
 * single-threaded, so hot-path changes to the cycle loop are measurable
 * and tracked over time in BENCH_sim_throughput.json.
 *
 * Protocol per workload: build the binary (untimed), run one short
 * untimed settle pass (predictor tables, caches, allocator warmup), then
 * time `--repeat` full runs of (warmup + instructions) committed
 * instructions and report the best — the repeat that suffered least
 * host-side interference. KIPS counts every committed instruction in the
 * timed run, warmup included, against wall time.
 *
 *   bench_sim_throughput [--json PATH] [--stress NAME] [--sampled]
 *                        [--warmup N] [--instructions N] [--repeat N]
 *                        [--fast-forward] [--ff-instructions N] [--check]
 *
 * --stress NAME restricts the workload list to the named stress profile
 * (e.g. "ifcmax") across all schemes — the CI perf-smoke configuration.
 * --sampled runs every workload through the production sampling policy
 * (SamplingPolicy::smarts()) instead of full simulation, so the JSON
 * trajectory can record full vs sampled KIPS side by side; KIPS still
 * counts every *covered* instruction (the whole warmup + measurement
 * region) against wall time — that is the point of sampling.
 *
 * Emulator-only throughput (the functional path sampled simulation
 * fast-forwards on) is measured per unique benchmark in three modes —
 * the legacy switch interpreter (stepLegacy), the decoded record
 * stream (produce into an ExecRing, the oracle-feed path), and the
 * record-free skip tier — and reported in the JSON document's
 * "fast_forward" section. --fast-forward runs only that part (the CI
 * smoke); --check exits non-zero if the skip tier is not >= 3x the
 * legacy interpreter.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/table.hh"
#include "driver/result_sink.hh"
#include "program/emulator.hh"
#include "sampling/sampled_simulator.hh"
#include "sim/simulator.hh"

using namespace pp;

namespace
{

struct Workload
{
    std::string benchmark;
    bool ifConvert = true;
    std::string schemeName;
    sim::SchemeConfig scheme;
};

struct Measurement
{
    Workload load;
    double hostMs = 0.0; ///< best (fastest) timed repeat
    double kips = 0.0;
    double ipc = 0.0;
};

std::vector<Workload>
defaultWorkloads()
{
    sim::SchemeConfig conv;
    conv.scheme = core::PredictionScheme::Conventional;
    sim::SchemeConfig peppa;
    peppa.scheme = core::PredictionScheme::PepPa;
    sim::SchemeConfig pred;
    pred.scheme = core::PredictionScheme::PredicatePredictor;
    sim::SchemeConfig sel;
    sel.scheme = core::PredictionScheme::PredicatePredictor;
    sel.predication = core::PredicationModel::SelectivePrediction;

    // One workload per scheme, spread over int/fp/stress benchmarks, so
    // the number covers the conventional branch path, the predicate
    // predictor's compare path, and rename-time predication.
    return {
        {"gzip", true, "conventional", conv},
        {"swim", true, "peppa", peppa},
        {"crafty", true, "predicate", pred},
        {"ifcmax", true, "selective", sel},
    };
}

std::vector<Workload>
stressWorkloads(const std::string &name)
{
    auto all = defaultWorkloads();
    std::vector<Workload> out;
    for (auto &w : all) {
        w.benchmark = name;
        out.push_back(w);
    }
    return out;
}

Measurement
measure(const Workload &w, std::uint64_t warmup, std::uint64_t insts,
        unsigned repeats, bool sampled)
{
    const auto profile = program::profileByName(w.benchmark);
    const sim::ProgramRef binary =
        sim::buildBinaryShared(profile, w.ifConvert);
    const sampling::SamplingPolicy policy =
        sampling::SamplingPolicy::smarts();

    auto one_run = [&]() {
        return sampled
            ? sampling::sampledRun(*binary, profile, w.scheme,
                                   core::CoreConfig{}, warmup, insts,
                                   policy)
            : sim::run(*binary, profile, w.scheme, warmup, insts);
    };

    // Untimed settle pass, through the same path the timed runs take so
    // first-touch costs of either machinery stay out of the numbers.
    if (sampled) {
        sampling::sampledRun(*binary, profile, w.scheme,
                             core::CoreConfig{}, warmup,
                             std::min<std::uint64_t>(insts, 50000),
                             policy);
    } else {
        sim::run(*binary, profile, w.scheme, warmup,
                 std::min<std::uint64_t>(insts, 50000));
    }

    Measurement m;
    m.load = w;
    for (unsigned r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        const sim::RunResult res = one_run();
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (m.hostMs == 0.0 || ms < m.hostMs) {
            // KIPS counts covered instructions — in sampled mode most
            // executed functionally — against wall time: the effective
            // sweep throughput a user experiences.
            m.hostMs = ms;
            m.kips = static_cast<double>(warmup + insts) / ms;
            m.ipc = res.ipc;
        }
    }
    return m;
}

/** Emulator-only throughput of one benchmark, all three modes. */
struct FfMeasurement
{
    std::string benchmark;
    double legacyKips = 0.0;  ///< stepLegacy(), one record at a time
    double streamKips = 0.0;  ///< produce() into an ExecRing (oracle feed)
    double skipKips = 0.0;    ///< skip(): architectural state only

    double streamSpeedup() const { return streamKips / legacyKips; }
    double skipSpeedup() const { return skipKips / legacyKips; }
};

FfMeasurement
measureFastForward(const std::string &benchmark, std::uint64_t insts,
                   unsigned repeats)
{
    const auto profile = program::profileByName(benchmark);
    const sim::ProgramRef binary = sim::buildBinaryShared(profile, true);
    const sim::DecodedRef decoded = sim::decodeShared(binary);
    const std::uint64_t seed = sim::coreSeed(profile);

    // Best-of-repeats wall time for one full emulator pass, with one
    // untimed settle pass (data-segment first touch) up front.
    auto best_kips = [&](auto &&pass) {
        pass(std::min<std::uint64_t>(insts, 100000));
        double best_ms = 0.0;
        for (unsigned r = 0; r < repeats; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            pass(insts);
            const auto t1 = std::chrono::steady_clock::now();
            const double ms =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();
            if (best_ms == 0.0 || ms < best_ms)
                best_ms = ms;
        }
        return static_cast<double>(insts) / best_ms;
    };

    FfMeasurement m;
    m.benchmark = benchmark;
    m.legacyKips = best_kips([&](std::uint64_t n) {
        program::Emulator emu(*binary, decoded.get(), seed);
        for (std::uint64_t i = 0; i < n; ++i)
            emu.stepLegacy();
    });
    m.streamKips = best_kips([&](std::uint64_t n) {
        program::Emulator emu(*binary, decoded.get(), seed);
        program::ExecRing ring;
        while (emu.instCount() < n) {
            emu.produce(ring,
                        std::min<std::uint64_t>(4096,
                                                n - emu.instCount()));
            ring.clear();
        }
    });
    m.skipKips = best_kips([&](std::uint64_t n) {
        program::Emulator emu(*binary, decoded.get(), seed);
        emu.skip(n);
    });
    return m;
}

/** Unique benchmarks of the workload list, in first-seen order. */
std::vector<std::string>
uniqueBenchmarks(const std::vector<Workload> &loads)
{
    std::vector<std::string> out;
    for (const Workload &w : loads) {
        bool seen = false;
        for (const std::string &b : out)
            seen = seen || b == w.benchmark;
        if (!seen)
            out.push_back(w.benchmark);
    }
    return out;
}

double
ffAggregate(const std::vector<FfMeasurement> &ms,
            double FfMeasurement::*field)
{
    // Equal instruction counts per benchmark: harmonic aggregation ==
    // total instructions over total time, matching aggregateKips().
    double inv = 0.0;
    for (const FfMeasurement &m : ms)
        inv += 1.0 / (m.*field);
    return static_cast<double>(ms.size()) / inv;
}

/**
 * All simulated instructions over all host time — the single number
 * tracked in the BENCH_sim_throughput.json trajectory. Computed once
 * here so the printed report and the JSON document cannot diverge.
 */
double
aggregateKips(const std::vector<Measurement> &ms, std::uint64_t warmup,
              std::uint64_t insts)
{
    double total_ms = 0.0;
    for (const Measurement &m : ms)
        total_ms += m.hostMs;
    return static_cast<double>(ms.size()) *
        static_cast<double>(warmup + insts) / total_ms;
}

void
writeJson(const std::string &path, const std::vector<Measurement> &ms,
          std::uint64_t warmup, std::uint64_t insts, unsigned repeats,
          bool sampled, const std::vector<FfMeasurement> &ff,
          std::uint64_t ff_insts)
{
    driver::withOutputStream(path, [&](std::ostream &os) {
        driver::JsonWriter w(os);
        w.beginObject();
        w.field("schema", "pp.bench.sim_throughput.v1");
        w.field("warmup_insts", warmup);
        w.field("measure_insts", insts);
        w.field("repeats", std::uint64_t(repeats));
        w.field("sampled", sampled);
        if (!ms.empty()) {
            w.key("runs");
            w.beginArray();
            for (const Measurement &m : ms) {
                w.beginObject();
                w.field("benchmark", m.load.benchmark);
                w.field("if_converted", m.load.ifConvert);
                w.field("scheme", m.load.schemeName);
                w.field("host_ms", m.hostMs);
                w.field("kips", m.kips);
                w.field("ipc", m.ipc);
                w.endObject();
            }
            w.endArray();
            w.field("aggregate_kips", aggregateKips(ms, warmup, insts));
        }
        if (!ff.empty()) {
            // Emulator-only throughput: "before" is the legacy switch
            // interpreter, "after" the decoded record stream (oracle
            // feed) and the record-free skip tier.
            w.key("fast_forward");
            w.beginObject();
            w.field("instructions", ff_insts);
            w.field("repeats", std::uint64_t(repeats));
            w.key("runs");
            w.beginArray();
            for (const FfMeasurement &m : ff) {
                w.beginObject();
                w.field("benchmark", m.benchmark);
                w.field("legacy_step_kips", m.legacyKips);
                w.field("decoded_stream_kips", m.streamKips);
                w.field("skip_kips", m.skipKips);
                w.field("stream_speedup", m.streamSpeedup());
                w.field("skip_speedup", m.skipSpeedup());
                w.endObject();
            }
            w.endArray();
            const double agg_legacy =
                ffAggregate(ff, &FfMeasurement::legacyKips);
            const double agg_stream =
                ffAggregate(ff, &FfMeasurement::streamKips);
            const double agg_skip =
                ffAggregate(ff, &FfMeasurement::skipKips);
            w.field("aggregate_legacy_kips", agg_legacy);
            w.field("aggregate_decoded_stream_kips", agg_stream);
            w.field("aggregate_skip_kips", agg_skip);
            w.field("aggregate_stream_speedup", agg_stream / agg_legacy);
            w.field("aggregate_skip_speedup", agg_skip / agg_legacy);
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
    std::string json_path = "BENCH_sim_throughput.json";
    std::string stress;
    std::uint64_t warmup = 20000;
    std::uint64_t insts = 400000;
    std::uint64_t ff_insts = 2000000;
    unsigned repeats = 5;
    bool sampled = false;
    bool ff_only = false;
    bool check = false;
    double check_bound = 3.0;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto need_value = [&](void) -> const char * {
            if (i + 1 >= argc)
                fatal(std::string("missing value for ") + a);
            return argv[++i];
        };
        if (std::strcmp(a, "--json") == 0) {
            json_path = need_value();
        } else if (std::strcmp(a, "--stress") == 0) {
            stress = need_value();
        } else if (std::strcmp(a, "--sampled") == 0) {
            sampled = true;
        } else if (std::strcmp(a, "--fast-forward") == 0) {
            ff_only = true;
        } else if (std::strcmp(a, "--check") == 0) {
            check = true;
        } else if (std::strcmp(a, "--check-bound") == 0) {
            check_bound = parseDecimal(a, need_value());
        } else if (std::strcmp(a, "--warmup") == 0) {
            warmup = parseU64(a, need_value());
        } else if (std::strcmp(a, "--instructions") == 0) {
            insts = parseU64(a, need_value());
        } else if (std::strcmp(a, "--ff-instructions") == 0) {
            ff_insts = parseU64(a, need_value());
        } else if (std::strcmp(a, "--repeat") == 0) {
            repeats = static_cast<unsigned>(
                parseU64(a, need_value()));
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            std::fprintf(stderr,
                "%s — simulator host-throughput benchmark (KIPS)\n\n"
                "  --json PATH        output document (default "
                "BENCH_sim_throughput.json, \"-\" = stdout)\n"
                "  --stress NAME      run every scheme on stress profile "
                "NAME instead of the default mix\n"
                "  --sampled          run via SMARTS sampling "
                "(SamplingPolicy::smarts()) instead of full simulation\n"
                "  --fast-forward     emulator-only throughput "
                "(legacy vs decoded stream vs skip), no timing runs\n"
                "  --check            exit non-zero unless the skip tier "
                "is >= the bound x the legacy interpreter\n"
                "  --check-bound X    skip-tier speedup gate (default "
                "3.0; CI uses a lower floor for host variance)\n"
                "  --warmup N         warmup instructions (default "
                "20000)\n"
                "  --instructions N   measured instructions (default "
                "400000)\n"
                "  --ff-instructions N  fast-forward measurement length "
                "(default 2000000)\n"
                "  --repeat N         timed repeats, best wins (default "
                "5)\n",
                argv[0]);
            return 0;
        } else {
            fatal(std::string("unknown argument: ") + a);
        }
        if (repeats == 0)
            fatal("--repeat must be at least 1");
    }

    const std::vector<Workload> loads =
        stress.empty() ? defaultWorkloads() : stressWorkloads(stress);

    std::vector<Measurement> results;
    if (!ff_only) {
        for (const Workload &w : loads) {
            results.push_back(measure(w, warmup, insts, repeats,
                                      sampled));
            std::fprintf(stderr, ".");
        }
    }

    // Emulator-only fast-forward throughput, one row per unique
    // benchmark (the functional path is scheme-independent).
    std::vector<FfMeasurement> ff;
    for (const std::string &b : uniqueBenchmarks(loads)) {
        ff.push_back(measureFastForward(b, ff_insts, repeats));
        std::fprintf(stderr, ".");
    }
    std::fprintf(stderr, "\n");

    const bool json_to_stdout = json_path == "-";
    std::FILE *report = json_to_stdout ? stderr : stdout;
    std::ostream &ts = json_to_stdout ? std::cerr : std::cout;
    if (!results.empty()) {
        TextTable t;
        t.setHeader({"workload", "host_ms", "KIPS", "IPC"});
        for (const Measurement &m : results) {
            t.addRow(m.load.benchmark + "/" + m.load.schemeName,
                     {m.hostMs, m.kips, m.ipc});
        }
        std::fprintf(report,
                     "\n== simulator throughput%s (best of %u) ==\n",
                     sampled ? ", sampled" : "", repeats);
        t.print(ts);
        std::fprintf(report, "aggregate: %.1f KIPS over %zu workloads\n",
                     aggregateKips(results, warmup, insts),
                     results.size());
    }

    TextTable ft;
    ft.setHeader({"benchmark", "legacy KIPS", "stream KIPS", "skip KIPS",
                  "stream x", "skip x"});
    for (const FfMeasurement &m : ff) {
        ft.addRow(m.benchmark, {m.legacyKips, m.streamKips, m.skipKips,
                                m.streamSpeedup(), m.skipSpeedup()});
    }
    const double agg_skip_speedup =
        ffAggregate(ff, &FfMeasurement::skipKips) /
        ffAggregate(ff, &FfMeasurement::legacyKips);
    std::fprintf(report,
                 "\n== emulator fast-forward throughput, %llu insts "
                 "(best of %u) ==\n",
                 (unsigned long long)ff_insts, repeats);
    ft.print(ts);
    std::fprintf(report,
                 "aggregate skip speedup: %.2fx (gate %.1fx)\n",
                 agg_skip_speedup, check_bound);

    writeJson(json_path, results, warmup, insts, repeats, sampled, ff,
              ff_insts);

    if (check && agg_skip_speedup < check_bound) {
        std::fprintf(stderr,
                     "bench_sim_throughput: fast-forward speedup bound "
                     "FAILED (%.2fx < %.1fx)\n",
                     agg_skip_speedup, check_bound);
        return 1;
    }
    return 0;
}
