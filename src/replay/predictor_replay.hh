/**
 * @file
 * Predictor-only replay tier: CBP-style batched ablation sweeps.
 *
 * Most of the paper's scheme questions — PVT sizing and organization
 * (§3.3), confidence widths, perceptron geometry, gshare vs PEP-PA —
 * depend only on the committed branch/predicate outcome stream, not on
 * out-of-order timing. This tier extracts that stream ONCE per workload
 * with the decoded warm tier (Emulator::warmForward, ~180k KIPS) and
 * trains/evaluates N predictor configurations side by side in a single
 * pass over it, the classic branch-prediction-championship harness
 * shape. A full OoOCore run costs ~4-5k KIPS per config; the replay
 * pass costs one stream extraction plus table updates, so dozens of
 * configs amortize to far less than one detailed run each.
 *
 * Update-timing semantics: each cell is a core::Bpu trained in commit
 * order through Bpu::trainBranch()/trainCompare(), the calls the core's
 * functional warming makes over the same stream. The two differ in one
 * input only: warming gives PEP-PA's selector the committed predicate
 * value, while replay gives it the value one ROB window late (the
 * fetch-time staleness, see PredictorReplay::stalePred_), so PEP-PA
 * tables diverge and every other table matches a warmed one.
 * The full detailed core trains the same tables in the same (commit)
 * order, but *predicts* at fetch time, several branches earlier in the
 * training sequence, and resolves predicate-guarded branches against
 * the PPRF (early resolution). Replay therefore reconciles with
 * full-sim committed mispredict stats within a small documented
 * tolerance rather than exactly; see docs/replay_format.md and
 * tests/replay/test_predictor_replay.cpp for the measured divergence.
 */

#ifndef PP_REPLAY_PREDICTOR_REPLAY_HH
#define PP_REPLAY_PREDICTOR_REPLAY_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/bpu.hh"
#include "core/config.hh"
#include "isa/instruction.hh"
#include "program/program.hh"
#include "program/suite.hh"
#include "sim/simulator.hh"

namespace pp
{
namespace replay
{

/**
 * The committed outcome stream of one workload window, in the
 * warm-stream encoding (program/warm_stream.hh: one 32-bit word per
 * event) filtered to Branch and Compare events — the only kinds
 * predictor tables consume. Extracted once per (workload, window) and
 * shared read-only by every replay batch; the instruction behind each
 * event is re-derived from the program image by its index, so the
 * stream is scheme-agnostic.
 */
struct ReplayStream
{
    /** Events of the warmup window (train, don't count). */
    std::vector<std::uint32_t> warmupEvents;

    /** Events of the measurement window (train and count). */
    std::vector<std::uint32_t> measureEvents;

    std::uint64_t warmupInsts = 0;
    std::uint64_t measureInsts = 0;

    /** Conditional branches / compares in the measurement window. */
    std::uint64_t measureBranches = 0;
    std::uint64_t measureCompares = 0;

    /** Total recorded events across both windows. */
    std::uint64_t events() const;
};

/**
 * Extract the committed outcome stream for @p profile's binary over
 * [0, warmup + measure) instructions. With @p trace the emulator
 * replays the recorded condition streams (bit-identical to the
 * recording run); otherwise conditions are generated from the profile
 * seed exactly as sim::run() would. @p decoded optionally shares a
 * predecode of @p binary (nullptr: decode privately).
 */
ReplayStream extractStream(const program::Program &binary,
                           const program::BenchmarkProfile &profile,
                           std::uint64_t warmup_insts,
                           std::uint64_t measure_insts,
                           const program::DecodedProgram *decoded = nullptr,
                           const program::TraceFile *trace = nullptr);

/** One predictor configuration evaluated by a replay pass. */
struct ReplayConfig
{
    std::string name;            ///< unique label ("pvt3696/dual" etc.)
    sim::SchemeConfig scheme;
    core::CoreConfig config;     ///< base machine (predictor geometry)
};

/** Counters one replay cell accumulates over the measurement window. */
struct ReplayStats
{
    /** @name Conditional branches (final = L2 / predicate prediction) */
    /// @{
    std::uint64_t condBranches = 0;
    std::uint64_t mispredicted = 0;
    std::uint64_t l1Mispredicted = 0;   ///< first-level gshare misses
    std::uint64_t mispredTaken = 0;     ///< mispredicted, actually taken
    std::uint64_t mispredNotTaken = 0;
    /// @}

    /** @name Per-branch-class breakdown (plain / call / return) */
    /// @{
    std::uint64_t brBranches = 0;
    std::uint64_t brMispredicted = 0;
    std::uint64_t callBranches = 0;
    std::uint64_t callMispredicted = 0;
    std::uint64_t retBranches = 0;
    std::uint64_t retMispredicted = 0;
    /// @}

    /** @name Compares (PredicatePredictor scheme only) */
    /// @{
    std::uint64_t compares = 0;
    std::uint64_t pd1Mispredicts = 0;
    std::uint64_t pd2Mispredicts = 0;
    std::uint64_t confidentPd1 = 0;      ///< confidence said trust pred1
    std::uint64_t confidentPd1Wrong = 0;
    /// @}

    /** Shadow conventional predictor misses (shadowConventional). */
    std::uint64_t shadowMispredicts = 0;

    double
    mispredPct() const
    {
        return condBranches == 0 ? 0.0
            : 100.0 * static_cast<double>(mispredicted) /
                static_cast<double>(condBranches);
    }

    /** Mispredicts per 1000 committed instructions of the window. */
    double
    mpki(std::uint64_t measure_insts) const
    {
        return measure_insts == 0 ? 0.0
            : 1000.0 * static_cast<double>(mispredicted) /
                static_cast<double>(measure_insts);
    }
};

/**
 * One predictor configuration's live state inside a replay pass: the
 * core::Bpu a detailed core of the same config would build, trained
 * through the same Bpu::trainBranch()/trainCompare() functional warming
 * calls, plus the per-config "last predicted value" of each logical
 * predicate register, which is what a predicate-scheme branch direction
 * is.
 */
class ReplayCell
{
  public:
    explicit ReplayCell(const ReplayConfig &rc);

    /**
     * One committed conditional branch. @p qp_arch is the fetch-time
     * value of the guarding predicate (the walker's shared state);
     * @p counting selects the measurement window.
     */
    void branch(const isa::Instruction *ins, Addr pc, bool taken,
                bool qp_arch, bool counting);

    /**
     * One committed compare. @p v1/@p v2 are the architectural values
     * the predicate destinations hold after the compare (the walker
     * computes them once, shared across cells); @p pd1_val/@p pd2_val
     * are the raw computed condition values of the event (the
     * perfect-history oracle).
     */
    void compare(const isa::Instruction *ins, Addr pc, bool v1, bool v2,
                 bool pd1_val, bool pd2_val, bool counting);

    const ReplayStats &stats() const { return stats_; }
    const std::string &name() const { return name_; }

    /** Predictor storage modeled by this configuration, in bytes. */
    std::uint64_t storageBytes() const;

  private:
    std::string name_;
    core::Bpu bpu_;

    /** Last value this cell's predicate predictor produced per logical
     *  register; predValid_ marks registers predicted at least once. */
    std::vector<std::uint8_t> predPred_;
    std::vector<std::uint8_t> predValid_;

    ReplayStats stats_;
};

/**
 * The batched single-pass runner: walk @p stream once, training every
 * cell of @p cells side by side. The walker owns the config-independent
 * shared state (the committed architectural predicate file) and decodes
 * each event exactly once; cells see identical inputs whether they run
 * alone or batched, so batched results are bit-identical to
 * one-config-at-a-time runs by construction.
 */
class PredictorReplay
{
  public:
    /**
     * @param binary the program the stream was extracted from (events
     *               re-derive instructions from its image)
     */
    PredictorReplay(const program::Program &binary,
                    const ReplayStream &stream);

    /**
     * Run the full warmup + measurement pass over @p cells (training
     * through warmup, counting through measurement). One call consumes
     * the whole stream; cells carry their stats afterwards.
     */
    void run(std::vector<ReplayCell> &cells);

  private:
    void walk(const std::vector<std::uint32_t> &events,
              std::vector<ReplayCell> &cells, bool counting);

    const program::Program &binary_;
    const ReplayStream &stream_;

    /** Committed architectural predicate values (shared, config-free). */
    std::vector<std::uint8_t> archPred_;

    /**
     * The fetch-time view of the predicate file. In the detailed core a
     * branch reads its guarding predicate's architectural value at
     * FETCH, but the producing compare only writes it back at COMMIT —
     * so a branch co-resident in the ROB with its producer reads the
     * register's previous value (the staleness §4.1 blames for PEP-PA
     * underperforming out of order; in this ISA a conditional branch's
     * outcome IS its guarding predicate, so a fresh selector would be
     * an outcome oracle). Replay models that window in program order:
     * a compare's writes become visible to branch selectors only
     * lagEvents_ events later, one ROB's worth of stream events.
     */
    std::vector<std::uint8_t> stalePred_;

    /** A committed predicate write not yet visible at fetch. */
    struct PendingWrite
    {
        std::uint64_t applyAt; ///< event index it lands at
        RegIndex reg;
        std::uint8_t val;
    };
    std::deque<PendingWrite> pending_;
    std::uint64_t lagEvents_ = 0;
    std::uint64_t eventIdx_ = 0; ///< cumulative across warmup + measure
};

/** One workload of a replay sweep (the stream-cache key unit). */
using ReplayWorkloadSpec = sim::Workload;

/** Per-config result of one workload (aligned with the config list). */
struct ReplayConfigResult
{
    std::string name;
    std::uint64_t storageBytes = 0;
    ReplayStats stats;
};

/** Everything one workload's replay produced. */
struct ReplayWorkloadResult
{
    std::string benchmark;
    bool ifConvert = false;
    std::string traceHash;       ///< workload artifact, when attached
    std::uint64_t warmupInsts = 0;
    std::uint64_t measureInsts = 0;
    std::uint64_t streamEvents = 0;
    std::uint64_t streamBranches = 0;
    std::uint64_t streamCompares = 0;

    /** @name Host wall times (NOT deterministic; scrub *host_ms) */
    /// @{
    double buildHostMs = 0.0;    ///< binary/decode/trace (amortized)
    double streamHostMs = 0.0;   ///< stream extraction
    double replayHostMs = 0.0;   ///< summed batch pass time
    /// @}

    std::vector<ReplayConfigResult> configs;
};

/**
 * Builder for a replay sweep: workloads (benchmark × if-conversion ×
 * window) crossed with an explicit predictor-config list. Mirrors
 * driver::RunMatrix in spirit but carries full CoreConfigs per config
 * so predictor *geometry* (table sizes, history lengths) is sweepable,
 * not just the SchemeConfig knobs.
 */
class ReplayMatrix
{
  public:
    ReplayMatrix();

    /** @name Axis definition (chainable) */
    /// @{
    ReplayMatrix &benchmarks(std::vector<program::BenchmarkProfile> suite);
    ReplayMatrix &addBenchmark(program::BenchmarkProfile profile);
    ReplayMatrix &ifConvert(bool on);
    ReplayMatrix &window(std::uint64_t warmup_insts,
                         std::uint64_t measure_insts);
    ReplayMatrix &addConfig(std::string name, sim::SchemeConfig scheme,
                            core::CoreConfig config = core::CoreConfig{});
    /// @}

    /** Keep only benchmarks whose name matches @p regex (search). */
    ReplayMatrix &filterBenchmarks(const std::string &regex);

    /** Enumerate the workload list (benchmark-major, deterministic). */
    std::vector<ReplayWorkloadSpec> workloads() const;

    const std::vector<ReplayConfig> &configs() const { return configs_; }

  private:
    std::vector<program::BenchmarkProfile> benchmarks_;
    bool ifConvert_ = false;
    std::vector<ReplayConfig> configs_;
    std::uint64_t warmup_;
    std::uint64_t measure_;
    std::string benchmarkFilter_;
};

/**
 * Convenience single-workload runner (tests, serial baselines): build
 * the stream and replay @p configs over it in one batch.
 */
ReplayWorkloadResult runReplayWorkload(
    const program::Program &binary,
    const ReplayWorkloadSpec &spec,
    const std::vector<ReplayConfig> &configs,
    const program::DecodedProgram *decoded = nullptr,
    const program::TraceFile *trace = nullptr);

} // namespace replay
} // namespace pp

#endif // PP_REPLAY_PREDICTOR_REPLAY_HH
