/**
 * @file
 * Benchmark profiles: the knobs that shape a generated workload, plus the
 * 22-program synthetic SPEC2000 stand-in suite (11 "int" + 11 "fp") used by
 * every experiment. See DESIGN.md §2 for the substitution rationale.
 */

#ifndef PP_PROGRAM_SUITE_HH
#define PP_PROGRAM_SUITE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pp
{
namespace program
{

/**
 * Parameters controlling program generation for one benchmark.
 *
 * The profile shapes exactly the properties the paper's phenomena depend
 * on: the hardness mix of branch conditions, the amount of cross-branch
 * correlation, compare-to-branch scheduling distance (early resolution),
 * static code size (predictor alias pressure) and the if-conversion
 * aggressiveness of the "compiler".
 */
struct BenchmarkProfile
{
    std::string name = "generic";
    bool isFp = false;
    std::uint64_t seed = 1;

    /** @name Static program structure */
    /// @{
    int numFunctions = 6;       ///< callable functions besides main body
    int regionsPerFunction = 10;///< region count per function body
    int blockLenMin = 2;        ///< then/else block length range
    int blockLenMax = 7;
    int loopTripMin = 4;        ///< inner-loop trip count range
    int loopTripMax = 24;
    std::uint64_t dataBytes = 1ull << 22; ///< data segment (power of two)
    /// @}

    /** @name Region-kind mix (weights, normalized internally) */
    /// @{
    double wHammock = 0.30;
    double wDiamond = 0.18;
    double wCorrChain = 0.14;   ///< the Figure-1 pattern (see codegen.hh)
    double wInnerLoop = 0.16;
    double wCompute = 0.16;
    double wCall = 0.06;
    /// @}

    /** @name Guard-condition mix (probabilities, must sum to <= 1) */
    /// @{
    double pEasyBiased = 0.35;  ///< bias in [.02,.10] or [.90,.98]
    double pMidBiased = 0.20;   ///< bias in [.15,.35] or [.65,.85]
    double pPattern = 0.15;     ///< periodic, locally learnable
    double pCorrGuard = 0.15;   ///< correlated with earlier guards
    /// remainder: data-dependent near-random
    double dataDepLo = 0.40;    ///< bias range for data-dependent conds
    double dataDepHi = 0.60;
    double corrNoise = 0.04;    ///< noise on correlated conditions
    /// @}

    /** @name Scheduling (early resolution) */
    /// @{
    int cmpBrDistMin = 0;       ///< filler insts between compare and branch
    int cmpBrDistMax = 5;
    double hoistFrac = 0.52;    ///< fraction of hammocks with hoisted cmp
    /// @}

    /** @name Instruction mix inside compute blocks */
    /// @{
    double memFrac = 0.28;
    double fpFrac = 0.05;       ///< raised automatically for isFp profiles
    /// @}

    /** @name "Compiler" if-conversion policy */
    /// @{
    double ifcMispredThreshold = 0.05; ///< convert when profiled above this
    int ifcMaxBlockLen = 24;           ///< max then+else length to convert
    /// @}
};

/**
 * Complete serialization of a profile, every field included (doubles
 * as %.17g). Profiles with equal texts generate the same binary, so the
 * text (or its hash) keys generated workloads.
 */
std::string profileKeyText(const BenchmarkProfile &p);

/** The 11 integer-like profiles (SPECint2000 names). */
std::vector<BenchmarkProfile> intSuite();

/** The 11 floating-point-like profiles (SPECfp2000 names). */
std::vector<BenchmarkProfile> fpSuite();

/** Full 22-benchmark suite, int then fp. */
std::vector<BenchmarkProfile> spec2000Suite();

/**
 * Stress presets exercising corners the SPEC-like suite leaves cold:
 * "ifcmax" (an if-conversion-everything compiler: every profiled region
 * converted, huge predicated blocks) and "aliasstorm" (pathological
 * predictor alias pressure: an enormous static branch/compare population
 * of near-random conditions). Swept via the driver's --stress flag.
 */
std::vector<BenchmarkProfile> stressSuite();

/** spec2000Suite() plus stressSuite(). */
std::vector<BenchmarkProfile> extendedSuite();

/** Look up a profile by name (extended suite); fatal() if unknown. */
BenchmarkProfile profileByName(const std::string &name);

} // namespace program
} // namespace pp

#endif // PP_PROGRAM_SUITE_HH
