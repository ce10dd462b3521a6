/**
 * @file
 * The replay tier's flagship harness: ≥32 predictor configurations —
 * PVT sizes × hash organizations × confidence widths, perceptron
 * geometries, PEP-PA geometries, idealized variants — trained and
 * evaluated in ONE pass over each workload's committed outcome stream
 * (src/replay/). A per-config full-sim sweep of the same grid would pay
 * a detailed OoO run per cell; this harness times a sample of real
 * full-sim runs and reports the aggregate speedup, gated in CI via
 * --check (pp.bench.predictor_replay.v1, BENCH_predictor_replay.json).
 *
 * Extra flags on top of the shared set:
 *   --serial          evaluate one config per engine pass (slow path;
 *                     the CI smoke diffs its document against the
 *                     batched one — they are bit-identical modulo
 *                     *host_ms by construction)
 *   --bench-json F    write the pp.bench.predictor_replay.v1 throughput
 *                     document (times full-sim samples; adds ~seconds)
 *   --check           fail unless speedup_vs_full_sim >= the bound
 *   --check-bound X   speedup bound for --check (default 20)
 */

#include <cstdio>
#include <ctime>
#include <sstream>

#include "bench_common.hh"

namespace
{

using namespace pp;
using namespace pp::bench;

/** The sweep grid: 34 configurations across four families. */
void
addReplayConfigs(replay::ReplayMatrix &matrix)
{
    // PVT family (§3.3): size x organization x confidence width.
    const std::uint32_t pvt_entries[] = {1848, 3696, 7392};
    const unsigned conf_widths[] = {2, 3, 4};
    for (const std::uint32_t entries : pvt_entries) {
        for (const bool split : {false, true}) {
            for (const unsigned w : conf_widths) {
                sim::SchemeConfig sc;
                sc.scheme = core::PredictionScheme::PredicatePredictor;
                sc.predication =
                    core::PredicationModel::SelectivePrediction;
                sc.splitPvt = split;
                sc.confidenceBits = w;
                core::CoreConfig cc;
                cc.predicate.tableEntries = entries;
                std::ostringstream name;
                name << "pvt" << entries << "/"
                     << (split ? "split" : "dual") << "/c" << w;
                matrix.addConfig(name.str(), sc, cc);
            }
        }
    }
    // Confidence extremes at the paper's design point.
    for (const unsigned w : {1u, 5u}) {
        sim::SchemeConfig sc;
        sc.scheme = core::PredictionScheme::PredicatePredictor;
        sc.predication = core::PredicationModel::SelectivePrediction;
        sc.confidenceBits = w;
        matrix.addConfig("pvt3696/dual/c" + std::to_string(w), sc);
    }

    // Conventional perceptron geometry family.
    const std::uint32_t perc_entries[] = {1848, 3696, 7392};
    const unsigned global_bits[] = {20, 30};
    for (const std::uint32_t entries : perc_entries) {
        for (const unsigned g : global_bits) {
            sim::SchemeConfig sc;
            sc.scheme = core::PredictionScheme::Conventional;
            core::CoreConfig cc;
            cc.perceptron.tableEntries = entries;
            cc.perceptron.globalBits = g;
            std::ostringstream name;
            name << "perc" << entries << "/g" << g;
            matrix.addConfig(name.str(), sc, cc);
        }
    }
    for (const unsigned l : {6u, 14u}) {
        sim::SchemeConfig sc;
        sc.scheme = core::PredictionScheme::Conventional;
        core::CoreConfig cc;
        cc.perceptron.localBits = l;
        matrix.addConfig("perc3696/g30/l" + std::to_string(l), sc, cc);
    }

    // PEP-PA geometry family.
    const std::uint32_t peppa_lht[] = {2048, 4096};
    const unsigned peppa_pht[] = {17, 19};
    for (const std::uint32_t lht : peppa_lht) {
        for (const unsigned pht : peppa_pht) {
            sim::SchemeConfig sc;
            sc.scheme = core::PredictionScheme::PepPa;
            core::CoreConfig cc;
            cc.peppa.lhtEntries = lht;
            cc.peppa.phtBits = pht;
            std::ostringstream name;
            name << "peppa/lht" << lht << "/pht" << pht;
            matrix.addConfig(name.str(), sc, cc);
        }
    }

    // Idealized variants (Fig. 5-style upper bounds).
    {
        sim::SchemeConfig sc;
        sc.scheme = core::PredictionScheme::PredicatePredictor;
        sc.idealPerfectHistory = true;
        matrix.addConfig("pvt3696/dual/ideal-hist", sc);
        sim::SchemeConfig sc2;
        sc2.scheme = core::PredictionScheme::PredicatePredictor;
        sc2.idealNoAlias = true;
        matrix.addConfig("pvt3696/dual/ideal-alias", sc2);
    }
}

std::vector<program::BenchmarkProfile>
replayBenchSuite()
{
    // A small cross-section (INT loopy, INT branchy, FP) keeps the
    // harness interactive; --filter/--stress widen or narrow it.
    std::vector<program::BenchmarkProfile> suite;
    for (const auto &p : program::spec2000Suite()) {
        if (p.name == "gzip" || p.name == "crafty" || p.name == "swim")
            suite.push_back(p);
    }
    return suite;
}

/** Thread CPU ms — the same clock the engine charges replay batches
 *  with, so the speedup ratio compares like against like. */
double
cpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
        static_cast<double>(ts.tv_nsec) * 1e-6;
}

double
hostMsOf(const std::vector<replay::ReplayWorkloadResult> &results)
{
    double ms = 0.0;
    for (const auto &r : results)
        ms += r.streamHostMs + r.replayHostMs;
    return ms;
}

/**
 * Time real detailed-core runs for a sample of the grid (one config
 * per family) and return the mean per-config wall time — the cost a
 * per-config full-sim sweep would pay for every one of the N cells.
 */
double
fullSimMsPerConfig(const BenchOptions &opts,
                   const std::vector<replay::ReplayWorkloadSpec> &wls,
                   const std::vector<replay::ReplayConfig> &configs,
                   const std::vector<std::size_t> &sample)
{
    double total_ms = 0.0;
    std::size_t runs = 0;
    for (const auto &w : wls) {
        const sim::ProgramRef binary =
            sim::buildBinaryShared(w.profile, w.ifConvert);
        const sim::DecodedRef decoded = sim::decodeShared(binary);
        for (const std::size_t c : sample) {
            const double t0 = cpuMs();
            (void)sim::run(*binary, w.profile, configs[c].scheme,
                           configs[c].config, opts.warmup, opts.measure,
                           decoded.get());
            total_ms += cpuMs() - t0;
            ++runs;
        }
    }
    return runs == 0 ? 0.0 : total_ms / static_cast<double>(runs);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool serial = stripFlag(argc, argv, "--serial");
    const bool check = stripFlag(argc, argv, "--check");
    const std::string bench_json =
        stripFlagValue(argc, argv, "--bench-json");
    const std::string bound_str =
        stripFlagValue(argc, argv, "--check-bound", "20");
    const double check_bound = parseDecimal("--check-bound", bound_str);

    const BenchOptions opts = parseBenchArgs(
        argc, argv,
        "batched predictor-replay sweep (34 configs, one stream pass;"
        " --serial / --bench-json F / --check / --check-bound X)");

    replay::ReplayMatrix matrix;
    matrix.benchmarks(replayBenchSuite());
    matrix.ifConvert(true);
    addReplayConfigs(matrix);

    std::vector<replay::ReplayWorkloadResult> results;
    if (!serial) {
        results = replaySweep(opts, matrix);
    } else {
        // One engine pass per config: the per-config-at-a-time route
        // the batched pass must match bit-for-bit. Deliberately not
        // replaySweep() so each pass carries exactly one config; the
        // stitched document is written through the same sink.
        BenchOptions serial_opts = opts;
        serial_opts.jsonPath.clear();
        serial_opts.metricsJsonPath.clear();
        const std::vector<replay::ReplayConfig> all = matrix.configs();
        for (std::size_t c = 0; c < all.size(); ++c) {
            replay::ReplayMatrix one;
            one.benchmarks(replayBenchSuite());
            one.ifConvert(true);
            one.addConfig(all[c].name, all[c].scheme, all[c].config);
            auto pass = replaySweep(serial_opts, one);
            if (c == 0) {
                results = std::move(pass);
            } else {
                for (std::size_t w = 0; w < results.size(); ++w) {
                    results[w].configs.push_back(
                        std::move(pass[w].configs[0]));
                    results[w].streamHostMs += pass[w].streamHostMs;
                    results[w].replayHostMs += pass[w].replayHostMs;
                }
            }
        }
        if (!opts.jsonPath.empty())
            driver::writeReplayJsonFile(opts.jsonPath, results);
        writeMetricsSnapshot(opts);
    }

    const std::size_t n_configs =
        results.empty() ? 0 : results.front().configs.size();

    // Per-family mean mispredict% across workloads (details: --json).
    TextTable t;
    t.setHeader({"config", "mean miss%", "mean MPKI", "KB"});
    for (std::size_t c = 0; c < n_configs; ++c) {
        double miss = 0.0;
        double mpki = 0.0;
        for (const auto &r : results) {
            miss += r.configs[c].stats.mispredPct();
            mpki += r.configs[c].stats.mpki(r.measureInsts);
        }
        const double n = static_cast<double>(results.size());
        t.addRow(results.front().configs[c].name,
                 {miss / n, mpki / n,
                  static_cast<double>(
                      results.front().configs[c].storageBytes) / 1024.0});
    }
    std::FILE *out = reportFile(opts);
    std::fprintf(out, "\n== Batched predictor replay (%zu configs x %zu"
                 " workloads, %s) ==\n", n_configs, results.size(),
                 serial ? "serial passes" : "one pass per batch");
    t.print(reportStream(opts));

    // Throughput + speedup vs an equivalent per-config full-sim sweep.
    int rc = 0;
    if (!bench_json.empty() || check) {
        const std::vector<replay::ReplayWorkloadSpec> wls =
            matrix.workloads();
        const std::vector<replay::ReplayConfig> configs =
            matrix.configs();
        // One sampled config per family: pvt, perceptron, peppa.
        std::vector<std::size_t> sample = {0};
        bool have_perc = false;
        bool have_peppa = false;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            if (!have_perc && configs[c].name.rfind("perc", 0) == 0) {
                sample.push_back(c);
                have_perc = true;
            } else if (!have_peppa &&
                       configs[c].name.rfind("peppa", 0) == 0) {
                sample.push_back(c);
                have_peppa = true;
            }
        }
        const double replay_ms = hostMsOf(results);
        const double fullsim_per_config =
            fullSimMsPerConfig(opts, wls, configs, sample);
        const double fullsim_equiv =
            fullsim_per_config * static_cast<double>(n_configs) *
            static_cast<double>(results.size());
        const double speedup =
            replay_ms > 0.0 ? fullsim_equiv / replay_ms : 0.0;
        const double configs_per_sec = replay_ms > 0.0
            ? static_cast<double>(n_configs * results.size()) /
                (replay_ms / 1000.0)
            : 0.0;
        std::fprintf(out, "\nreplay host ms: %.1f (stream + batches)\n"
                     "full-sim ms/config (measured on %zu samples x %zu"
                     " workloads): %.1f\n"
                     "aggregate speedup vs per-config full sim: %.1fx"
                     " (%.1f configs/sec)\n",
                     replay_ms, sample.size(), wls.size(),
                     fullsim_per_config, speedup, configs_per_sec);

        if (!bench_json.empty()) {
            std::ostringstream doc;
            driver::JsonWriter w(doc);
            w.beginObject();
            w.field("schema", "pp.bench.predictor_replay.v1");
            w.field("configs", static_cast<std::uint64_t>(n_configs));
            w.field("workloads",
                    static_cast<std::uint64_t>(results.size()));
            w.field("warmup_insts", opts.warmup);
            w.field("measure_insts", opts.measure);
            w.field("replay_host_ms", replay_ms);
            w.field("fullsim_host_ms_per_config", fullsim_per_config);
            w.field("fullsim_samples",
                    static_cast<std::uint64_t>(sample.size()));
            w.field("speedup_vs_full_sim", speedup);
            w.field("configs_per_sec", configs_per_sec);
            w.endObject();
            doc << "\n";
            std::string error;
            if (!writeFileAtomic(bench_json, doc.str(), &error))
                fatal("cannot write bench json: " + error);
            informf("replay throughput written to %s",
                    bench_json.c_str());
        }
        if (check) {
            if (speedup < check_bound) {
                std::fprintf(stderr, "CHECK FAILED: replay speedup"
                             " %.1fx < required %.1fx\n", speedup,
                             check_bound);
                rc = 1;
            } else {
                std::fprintf(stderr, "check ok: replay speedup %.1fx"
                             " >= %.1fx\n", speedup, check_bound);
            }
        }
    }
    return rc;
}
