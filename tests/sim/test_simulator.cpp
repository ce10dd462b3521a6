/** @file Tests for the simulation façade. */

#include <cstdlib>

#include <gtest/gtest.h>

#include "sim/simulator.hh"

using namespace pp;
using namespace pp::sim;

TEST(Simulator, BuildBinaryVariants)
{
    const auto prof = program::profileByName("gzip");
    program::IfConvertStats stats;
    const auto plain = buildBinary(prof, false);
    const auto conv = buildBinary(prof, true, &stats);
    EXPECT_EQ(plain.countIfConverted(), 0u);
    EXPECT_GT(conv.countIfConverted(), 0u);
    EXPECT_LT(conv.countConditionalBranches(),
              plain.countConditionalBranches());
    EXPECT_EQ(conv.countCompares(), plain.countCompares());
    EXPECT_GT(stats.regionsConverted, 0u);
}

TEST(Simulator, RunWindowExcludesWarmup)
{
    const auto prof = program::profileByName("gzip");
    const auto bin = buildBinary(prof, false);
    SchemeConfig cfg;
    const auto r = run(bin, prof, cfg, 20000, 50000);
    EXPECT_GE(r.stats.committedInsts, 50000u);
    EXPECT_LT(r.stats.committedInsts, 50000u + 16);
    EXPECT_GT(r.ipc, 0.3);
    EXPECT_GT(r.mispredRatePct, 0.0);
    EXPECT_NEAR(r.accuracyPct + r.mispredRatePct, 100.0, 1e-9);
}

TEST(Simulator, StatsDeltaIsFieldwise)
{
    core::CoreStats a, b;
    a.cycles = 10;
    b.cycles = 25;
    a.committedCondBranches = 3;
    b.committedCondBranches = 10;
    const auto d = statsDelta(a, b);
    EXPECT_EQ(d.cycles, 15u);
    EXPECT_EQ(d.committedCondBranches, 7u);
}

TEST(Simulator, EnvironmentOverridesDefaults)
{
    setenv("REPRO_INSTRUCTIONS", "12345", 1);
    setenv("REPRO_WARMUP", "678", 1);
    EXPECT_EQ(defaultInstructions(), 12345u);
    EXPECT_EQ(defaultWarmup(), 678u);
    unsetenv("REPRO_INSTRUCTIONS");
    unsetenv("REPRO_WARMUP");
    EXPECT_EQ(defaultInstructions(), 1000000u);
    EXPECT_EQ(defaultWarmup(), 150000u);
}

TEST(SimulatorDeathTest, MalformedEnvironmentWindowIsFatal)
{
    // strtoull read "1e6" as 1 and "2k" as 2: the sweep ran a window
    // of a few instructions and reported an IPC of 0 with exit 0.
    EXPECT_EXIT(
        {
            setenv("REPRO_INSTRUCTIONS", "1e6", 1);
            defaultInstructions();
        },
        ::testing::ExitedWithCode(1),
        "invalid number for REPRO_INSTRUCTIONS: '1e6'");
    EXPECT_EXIT(
        {
            setenv("REPRO_WARMUP", "2k", 1);
            defaultWarmup();
        },
        ::testing::ExitedWithCode(1), "invalid number for REPRO_WARMUP: '2k'");
}

TEST(Simulator, SplitPvtKnobChangesResults)
{
    const auto prof = program::profileByName("crafty");
    const auto bin = buildBinary(prof, true);
    SchemeConfig dual, split;
    dual.scheme = core::PredictionScheme::PredicatePredictor;
    split.scheme = core::PredictionScheme::PredicatePredictor;
    split.splitPvt = true;
    const auto rd = run(bin, prof, dual, 10000, 60000);
    const auto rs = run(bin, prof, split, 10000, 60000);
    // Same workload, different table organization: results differ but
    // both remain sane.
    EXPECT_GT(rd.ipc, 0.3);
    EXPECT_GT(rs.ipc, 0.3);
}
