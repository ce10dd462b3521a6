/**
 * @file
 * Run-matrix specification for the parallel experiment driver.
 *
 * A RunMatrix enumerates the cartesian product of five axes —
 * BenchmarkProfile × if-conversion × SchemeConfig × core-config override
 * × SamplingPolicy — into a flat, deterministically ordered list of
 * RunSpecs that the SweepEngine executes. Every experiment harness
 * describes itself as a matrix instead of hand-rolling nested loops.
 */

#ifndef PP_DRIVER_RUN_MATRIX_HH
#define PP_DRIVER_RUN_MATRIX_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "program/suite.hh"
#include "sampling/sampling_policy.hh"
#include "sim/simulator.hh"

namespace pp
{
namespace driver
{

/** One named prediction/predication scheme (a matrix column). */
struct SchemeAxis
{
    std::string name;
    sim::SchemeConfig scheme;
};

/** One named machine-configuration override (Table-1 variant). */
struct ConfigAxis
{
    std::string name;           ///< empty = the default machine
    core::CoreConfig config;
};

/** One named sampling mode (full detail or a SMARTS policy). */
struct SamplingAxis
{
    std::string name;           ///< empty = full detailed simulation
    sampling::SamplingPolicy policy;
};

/** A fully resolved single run: one cell of the matrix. */
struct RunSpec : sim::Workload
{
    std::string schemeName;
    sim::SchemeConfig scheme;
    std::string configName;     ///< empty for the default machine
    core::CoreConfig config;
    std::string samplingName;   ///< empty for full detailed simulation
    sampling::SamplingPolicy sampling;

    /** Human-readable "benchmark/scheme[/config][/sampling]" label. */
    std::string label() const;
};

/**
 * Builder for the run list. Axes default to: no benchmarks, the
 * conventional scheme, the default machine, non-if-converted code, and
 * the REPRO_* instruction windows.
 */
class RunMatrix
{
  public:
    RunMatrix();

    /** @name Axis definition (chainable) */
    /// @{
    RunMatrix &benchmarks(std::vector<program::BenchmarkProfile> suite);
    RunMatrix &addBenchmark(program::BenchmarkProfile profile);
    RunMatrix &addScheme(std::string name, sim::SchemeConfig scheme);
    RunMatrix &addConfig(std::string name, core::CoreConfig config);

    /**
     * Add a sampling mode to the axis. The default axis is one full-
     * detail entry; the first addSampling replaces it, so a matrix with
     * a single addSampling("smarts", ...) runs everything sampled, and
     * addSampling("", {}) + addSampling("smarts", p) sweeps full vs
     * sampled side by side.
     */
    RunMatrix &addSampling(std::string name,
                           sampling::SamplingPolicy policy);

    RunMatrix &ifConvert(bool on);          ///< single value
    RunMatrix &ifConvertBoth();             ///< axis {plain, if-converted}
    RunMatrix &window(std::uint64_t warmup_insts,
                      std::uint64_t measure_insts);
    /// @}

    /** @name Selection */
    /// @{
    /** Keep only benchmarks whose name matches @p regex (search). */
    RunMatrix &filterBenchmarks(const std::string &regex);
    /** Keep only cells whose label() matches @p regex (search). */
    RunMatrix &filter(const std::string &regex);
    /// @}

    /** @name Introspection */
    /// @{
    const std::vector<program::BenchmarkProfile> &benchmarkAxis() const
    { return benchmarks_; }
    const std::vector<SchemeAxis> &schemeAxis() const { return schemes_; }
    const std::vector<ConfigAxis> &configAxis() const { return configs_; }
    const std::vector<SamplingAxis> &samplingAxis() const
    { return samplings_; }
    std::uint64_t warmup() const { return warmup_; }
    std::uint64_t measure() const { return measure_; }
    /// @}

    /**
     * Enumerate the cartesian product, benchmark-major then
     * if-conversion, then scheme, then config, then sampling. The order
     * is a pure function of the axes — it never depends on execution.
     */
    std::vector<RunSpec> specs() const;

  private:
    std::vector<program::BenchmarkProfile> benchmarks_;
    std::vector<bool> ifConvert_;
    std::vector<SchemeAxis> schemes_;
    std::vector<ConfigAxis> configs_;
    std::vector<SamplingAxis> samplings_;
    std::uint64_t warmup_;
    std::uint64_t measure_;
    std::string labelFilter_;
};

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_RUN_MATRIX_HH
