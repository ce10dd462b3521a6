/**
 * @file
 * Golden counters for both sampled estimators. The other sampled tests
 * check tolerances or compare a tier with itself; this one pins warm
 * training exactly. At the policy below every fast-forward path runs:
 * the drained window's oracle-ring records, the skip tier beyond the
 * warming horizon and the warm tier inside it. Each estimator runs all
 * eight sampling::kAccuracyGrid cells, so the idealized perfect-history
 * and shadow-predictor training are covered too. Every kCoreStatsField
 * and the window count must stay bit-identical; a model change that
 * moves them regenerates the table with the previous known-good build
 * and says so in its commit message.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/corestats.hh"
#include "sampling/accuracy_contract.hh"
#include "sampling/sampled_simulator.hh"
#include "sampling/window_checkpoint.hh"
#include "sim/simulator.hh"

using namespace pp;

namespace
{

constexpr std::uint64_t kRegionWarmup = 10000;
constexpr std::uint64_t kRegionMeasure = 200000;

constexpr std::size_t kNumFields =
    sizeof(core::kCoreStatsFields) / sizeof(core::kCoreStatsFields[0]);
constexpr std::size_t kNumCells =
    sizeof(sampling::kAccuracyGrid) / sizeof(sampling::kAccuracyGrid[0]);

/** Ten windows with a 15k gap, 8k of it warmed and 7k skipped. */
sampling::SamplingPolicy
goldenPolicy()
{
    sampling::SamplingPolicy p;
    p.periodInsts = 20000;
    p.warmupInsts = 2000;
    p.measureInsts = 3000;
    p.warmingHorizon = 8000;
    return p;
}

/** One estimate: its window count and counters in kCoreStatsFields order. */
struct Golden
{
    std::uint64_t windows;
    std::uint64_t counters[kNumFields];
};

// Entry i corresponds to sampling::kAccuracyGrid[i]. Captured at commit
// 5e8272e, Release build, over a 10k + 200k region.

/** sampling::sampledRunDetailed (the persistent-core estimator). */
const Golden kPersistent[] = {
    // gzip/conventional
    {10, {72450, 200000, 15445, 1360, 1360, 0, 1740, 1353, 0, 0, 0, 0, 0,
          0, 0, 15471, 0}},
    // gzip+ifc/conventional
    {10, {52370, 200000, 11681, 473, 473, 0, 393, 460, 0, 0, 17675, 0, 0,
          0, 0, 15168, 0}},
    // crafty+ifc/peppa
    {10, {76588, 200000, 12548, 967, 967, 0, 447, 967, 0, 0, 10801, 0, 0,
          0, 0, 14921, 0}},
    // swim+ifc/predicate
    {10, {71468, 200000, 14330, 240, 240, 6501, 213, 240, 0, 0, 2294, 0,
          0, 0, 0, 14796, 653}},
    // gzip+ifc/selective
    {10, {49898, 200000, 11689, 267, 267, 4561, 253, 260, 0, 0, 17677,
          5428, 1240, 9909, 47, 15170, 1327}},
    // ifcmax+ifc/selective
    {10, {59569, 200000, 6120, 173, 173, 4167, 253, 180, 0, 0, 36335,
          13407, 2080, 9614, 67, 9660, 1653}},
    // crafty+ifc/ideal
    {10, {71450, 200000, 12548, 473, 473, 4314, 373, 473, 0, 0, 10781, 0,
          0, 0, 0, 14922, 1407}},
    // swim+ifc/selective_shadow
    {10, {71561, 200000, 14330, 240, 240, 6501, 213, 240, 420, 187, 2294,
          687, 53, 1107, 7, 14796, 653}},
};

/** buildWindowCheckpoints + runWindow + mergeWindowRuns. */
const Golden kCheckpoint[] = {
    // gzip/conventional
    {10, {84963, 200000, 15454, 2127, 2127, 0, 2207, 2127, 0, 0, 0, 0, 0,
          0, 0, 15474, 0}},
    // gzip+ifc/conventional
    {10, {62610, 200000, 11691, 1060, 1060, 0, 914, 1087, 0, 0, 17646, 0,
          0, 0, 0, 15166, 0}},
    // crafty+ifc/peppa
    {10, {79412, 200000, 12550, 1174, 1174, 0, 593, 1160, 0, 0, 10783, 0,
          0, 0, 0, 14923, 0}},
    // swim+ifc/predicate
    {10, {106286, 200000, 14331, 247, 247, 6446, 213, 240, 0, 0, 2293, 0,
          0, 0, 0, 14798, 773}},
    // gzip+ifc/selective
    {10, {55905, 200000, 11697, 600, 600, 4528, 560, 600, 0, 0, 17659,
          4782, 987, 10890, 33, 15172, 1974}},
    // ifcmax+ifc/selective
    {10, {58488, 200000, 6121, 180, 180, 4047, 253, 180, 0, 0, 36332,
          11288, 0, 13248, 0, 9655, 1794}},
    // crafty+ifc/ideal
    {10, {74684, 200000, 12550, 640, 640, 4288, 407, 640, 0, 0, 10783, 0,
          0, 0, 0, 14923, 1787}},
    // swim+ifc/selective_shadow
    {10, {106433, 200000, 14326, 240, 240, 6440, 213, 240, 420, 193, 2293,
          727, 0, 973, 0, 14799, 773}},
};

static_assert(sizeof(kPersistent) / sizeof(kPersistent[0]) == kNumCells &&
                  sizeof(kCheckpoint) / sizeof(kCheckpoint[0]) == kNumCells,
              "golden expectations must cover the shared grid exactly");

void
expectGolden(std::uint64_t windows, const core::CoreStats &s,
             const Golden &e)
{
    EXPECT_EQ(windows, e.windows);
    for (std::size_t f = 0; f < kNumFields; ++f) {
        const core::CoreStatsField &field = core::kCoreStatsFields[f];
        EXPECT_EQ(s.*field.member, e.counters[f]) << field.name;
    }
}

} // namespace

TEST(SampledGolden, PersistentEstimatorBitIdentical)
{
    for (std::size_t i = 0; i < kNumCells; ++i) {
        const sampling::AccuracyCell &c = sampling::kAccuracyGrid[i];
        SCOPED_TRACE(c.label());
        const auto profile = program::profileByName(c.benchmark);
        const program::Program binary =
            sim::buildBinary(profile, c.ifConvert);
        const sampling::SampledRun r = sampling::sampledRunDetailed(
            binary, profile, sampling::accuracySchemeByName(c.scheme),
            core::CoreConfig{}, kRegionWarmup, kRegionMeasure,
            goldenPolicy());
        expectGolden(r.windows, r.result.stats, kPersistent[i]);
    }
}

TEST(SampledGolden, CheckpointEstimatorBitIdentical)
{
    for (std::size_t i = 0; i < kNumCells; ++i) {
        const sampling::AccuracyCell &c = sampling::kAccuracyGrid[i];
        SCOPED_TRACE(c.label());
        const auto profile = program::profileByName(c.benchmark);
        const program::Program binary =
            sim::buildBinary(profile, c.ifConvert);
        const sampling::WindowCheckpointSet set =
            sampling::buildWindowCheckpoints(binary, profile, kRegionWarmup,
                                             kRegionMeasure, goldenPolicy());
        const core::CoreConfig cfg = sim::resolveConfig(
            sampling::accuracySchemeByName(c.scheme), core::CoreConfig{});
        std::vector<sampling::WindowRunResult> runs;
        for (const sampling::WindowCheckpoint &w : set.windows) {
            runs.push_back(sampling::runWindow(w, binary, cfg,
                                               sim::coreSeed(profile)));
        }
        const sampling::SampledRun r = sampling::mergeWindowRuns(
            set, runs, profile.name, kRegionMeasure);
        expectGolden(r.windows, r.result.stats, kCheckpoint[i]);
    }
}
