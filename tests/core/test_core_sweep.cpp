/**
 * @file
 * Property-style sweeps over core configurations: every scheme ×
 * predication × binary combination must run wedge-free, commit exactly
 * the requested work, and preserve the oracle-defined architectural
 * behaviour (same branch mix regardless of microarchitecture).
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "sim/simulator.hh"

using namespace pp;
using namespace pp::core;

namespace
{

struct SweepPoint
{
    std::string bench;
    bool ifConverted;
    PredictionScheme scheme;
    PredicationModel predication;
    bool ideal;

    std::string
    label() const
    {
        std::string s = bench;
        s += ifConverted ? "_ifc" : "_plain";
        switch (scheme) {
          case PredictionScheme::Conventional: s += "_conv"; break;
          case PredictionScheme::PepPa: s += "_peppa"; break;
          case PredictionScheme::PredicatePredictor: s += "_pred"; break;
        }
        if (predication == PredicationModel::SelectivePrediction)
            s += "_sel";
        if (ideal)
            s += "_ideal";
        return s;
    }
};

std::vector<SweepPoint>
sweepPoints()
{
    std::vector<SweepPoint> pts;
    for (const char *b : {"gzip", "twolf", "swim"}) {
        for (const bool ifc : {false, true}) {
            pts.push_back({b, ifc, PredictionScheme::Conventional,
                           PredicationModel::Cmov, false});
            pts.push_back({b, ifc, PredictionScheme::PepPa,
                           PredicationModel::Cmov, false});
            pts.push_back({b, ifc, PredictionScheme::PredicatePredictor,
                           PredicationModel::Cmov, false});
            pts.push_back({b, ifc, PredictionScheme::PredicatePredictor,
                           PredicationModel::SelectivePrediction, false});
        }
        pts.push_back({b, false, PredictionScheme::PredicatePredictor,
                       PredicationModel::Cmov, true});
        pts.push_back({b, false, PredictionScheme::Conventional,
                       PredicationModel::Cmov, true});
    }
    return pts;
}

} // namespace

class CoreSweepTest : public ::testing::TestWithParam<SweepPoint>
{
};

TEST_P(CoreSweepTest, RunsCleanAndSane)
{
    const SweepPoint &pt = GetParam();
    const auto prof = program::profileByName(pt.bench);
    const auto bin = sim::buildBinary(prof, pt.ifConverted);

    CoreConfig cfg;
    cfg.scheme = pt.scheme;
    cfg.predication = pt.predication;
    cfg.idealNoAlias = cfg.idealPerfectHistory = pt.ideal;

    OoOCore cpu(bin, cfg, prof.seed);
    cpu.run(120000);

    const auto &s = cpu.coreStats();
    EXPECT_GE(s.committedInsts, 120000u);
    EXPECT_GT(s.committedCondBranches, 1000u);
    EXPECT_GT(s.ipc(), 0.2);
    EXPECT_LE(s.ipc(), 6.0);
    EXPECT_LE(s.mispredictedCondBranches, s.committedCondBranches);
    EXPECT_LE(s.earlyResolvedBranches, s.committedCondBranches);
}

TEST_P(CoreSweepTest, BranchMixIsMicroarchitectureInvariant)
{
    // The oracle defines the committed instruction stream; the scheme can
    // only change timing, never which branches commit.
    const SweepPoint &pt = GetParam();
    const auto prof = program::profileByName(pt.bench);
    const auto bin = sim::buildBinary(prof, pt.ifConverted);

    CoreConfig cfg;
    cfg.scheme = pt.scheme;
    cfg.predication = pt.predication;
    cfg.idealNoAlias = cfg.idealPerfectHistory = pt.ideal;
    OoOCore cpu(bin, cfg, prof.seed);
    cpu.run(100000);

    CoreConfig base;
    OoOCore ref(bin, base, prof.seed);
    ref.run(100000);

    // Compare total committed conditional branches over the *same*
    // committed-instruction horizon (commit counts may overshoot by the
    // final group; tolerate the width).
    const auto a = cpu.coreStats();
    const auto b = ref.coreStats();
    EXPECT_NEAR(double(a.committedCondBranches),
                double(b.committedCondBranches), 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CoreSweepTest, ::testing::ValuesIn(sweepPoints()),
    [](const ::testing::TestParamInfo<SweepPoint> &info) {
        return info.param.label();
    });

TEST(CoreStatsApi, HelperFormulas)
{
    CoreStats s;
    EXPECT_EQ(s.mispredRatePct(), 0.0);
    EXPECT_EQ(s.ipc(), 0.0);
    s.cycles = 100;
    s.committedInsts = 250;
    s.committedCondBranches = 50;
    s.mispredictedCondBranches = 5;
    s.shadowMispredicts = 10;
    EXPECT_DOUBLE_EQ(s.ipc(), 2.5);
    EXPECT_DOUBLE_EQ(s.mispredRatePct(), 10.0);
    EXPECT_DOUBLE_EQ(s.shadowMispredRatePct(), 20.0);
}

TEST(CoreConfigSweep, NarrowMachineStillCorrect)
{
    // A 2-wide, tiny-window machine must still execute correctly, just
    // slower than the default.
    const auto prof = program::profileByName("gzip");
    const auto bin = sim::buildBinary(prof, false);
    CoreConfig narrow;
    narrow.fetchWidth = 2;
    narrow.renameWidth = 2;
    narrow.commitWidth = 2;
    narrow.robEntries = 32;
    narrow.intIqEntries = 16;
    narrow.fpIqEntries = 16;
    narrow.brIqEntries = 8;
    narrow.lqEntries = 8;
    narrow.sqEntries = 8;
    narrow.intPhysRegs = 128;
    narrow.fpPhysRegs = 128;
    narrow.predPhysRegs = 96;
    OoOCore slow(bin, narrow, 1);
    OoOCore fast(bin, CoreConfig{}, 1);
    slow.run(60000);
    fast.run(60000);
    EXPECT_LT(slow.coreStats().ipc(), fast.coreStats().ipc());
    EXPECT_GT(slow.coreStats().ipc(), 0.1);
}

TEST(CoreConfigSweep, LongerRecoveryCostsCycles)
{
    const auto prof = program::profileByName("mcf"); // mispredict-heavy
    const auto bin = sim::buildBinary(prof, false);
    CoreConfig quick, slowrec;
    quick.mispredictRecovery = 2;
    slowrec.mispredictRecovery = 30;
    OoOCore a(bin, quick, 1);
    OoOCore b(bin, slowrec, 1);
    a.run(80000);
    b.run(80000);
    EXPECT_GT(a.coreStats().ipc(), b.coreStats().ipc());
}
