/** @file Core tests for the predicate-prediction mechanisms. */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "program/asmprog.hh"
#include "sim/simulator.hh"

using namespace pp;
using namespace pp::core;
using namespace pp::program;
using namespace pp::isa;

namespace
{

/**
 * Hoisted-compare hammock: compare far ahead of its branch, so the
 * branch should be early-resolved under the predicate scheme.
 */
Program
hoistedProgram(int distance)
{
    AsmProgram p;
    p.addCondition(ConditionSpec::dataDep(0.5));
    const LabelId top = p.newLabel();
    p.placeLabel(top);
    const LabelId skip = p.newLabel();
    p.emit(makeCmp(CmpType::Unc, 1, 2, 0));
    for (int i = 0; i < distance; ++i)
        p.emit(makeAlu(Opcode::IAdd, 3 + (i % 20), 4 + (i % 20),
                       5 + (i % 18)));
    p.emit(makeBranch(0, 2), skip);
    p.emit(makeAlu(Opcode::IAdd, 30, 31, 32));
    p.placeLabel(skip);
    p.emit(makeBranch(0), top);
    return p.assemble(1 << 20, "t");
}

/** If-converted block guarded by a very biased predicate. */
Program
predicatedProgram(double bias, int guarded_len)
{
    AsmProgram p;
    p.addCondition(ConditionSpec::biased(bias));
    const LabelId top = p.newLabel();
    p.placeLabel(top);
    p.emit(makeCmp(CmpType::Unc, 1, 2, 0));
    for (int i = 0; i < guarded_len; ++i) {
        Instruction ins = makeAlu(Opcode::IMul, 3 + i, 4 + i, 5 + i);
        ins.qp = 1;
        ins.ifConverted = true;
        p.emit(ins);
    }
    p.emit(makeAlu(Opcode::IAdd, 30, 3, 31));
    p.emit(makeBranch(0), top);
    return p.assemble(1 << 20, "t");
}

} // namespace

TEST(CorePredicate, HoistedCompareYieldsEarlyResolution)
{
    const Program bin = hoistedProgram(30);
    CoreConfig cfg;
    cfg.scheme = PredictionScheme::PredicatePredictor;
    OoOCore cpu(bin, cfg, 3);
    cpu.run(50000);
    const auto &s = cpu.coreStats();
    // Nearly every instance of the branch should read a computed value.
    EXPECT_GT(double(s.earlyResolvedBranches) /
                  double(s.committedCondBranches), 0.8);
    // Early-resolved branches are 100% accurate (paper §3.1); with a
    // 50/50 condition everything else would mispredict half the time.
    EXPECT_LT(s.mispredRatePct(), 10.0);
}

TEST(CorePredicate, AdjacentCompareIsNotEarlyResolved)
{
    const Program bin = hoistedProgram(0);
    CoreConfig cfg;
    cfg.scheme = PredictionScheme::PredicatePredictor;
    OoOCore cpu(bin, cfg, 3);
    cpu.run(50000);
    const auto &s = cpu.coreStats();
    EXPECT_LT(double(s.earlyResolvedBranches) /
                  double(s.committedCondBranches), 0.4);
    EXPECT_GT(s.mispredRatePct(), 30.0); // unpredictable condition
}

TEST(CorePredicate, EarlyResolvedNeverMispredicts)
{
    // The core panics when an early-resolved branch commits mispredicted,
    // so a finished run that committed early-resolved branches is the
    // check.
    const Program bin = hoistedProgram(30);
    CoreConfig cfg;
    cfg.scheme = PredictionScheme::PredicatePredictor;
    OoOCore cpu(bin, cfg, 3);
    cpu.run(50000);
    EXPECT_GE(cpu.coreStats().committedInsts, 50000u);
    EXPECT_GT(cpu.coreStats().earlyResolvedBranches, 0u);
}

TEST(CorePredicate, SelectiveNullifiesConfidentFalse)
{
    // Guard almost always false: selective predication should cancel the
    // guarded block at rename nearly every iteration.
    const Program bin = predicatedProgram(0.02, 4);
    CoreConfig cfg;
    cfg.scheme = PredictionScheme::PredicatePredictor;
    cfg.predication = PredicationModel::SelectivePrediction;
    OoOCore cpu(bin, cfg, 5);
    cpu.run(60000);
    const auto &s = cpu.coreStats();
    EXPECT_GT(s.nullifiedAtRename, 10000u);
}

TEST(CorePredicate, SelectiveBeatsCmovOnBiasedGuards)
{
    const Program bin = predicatedProgram(0.05, 6);
    CoreConfig cmov, sel;
    cmov.scheme = PredictionScheme::PredicatePredictor;
    cmov.predication = PredicationModel::Cmov;
    sel.scheme = PredictionScheme::PredicatePredictor;
    sel.predication = PredicationModel::SelectivePrediction;
    OoOCore a(bin, cmov, 5), b(bin, sel, 5);
    a.run(60000);
    b.run(60000);
    // Cancelling the serial mul chain at rename must win decisively.
    EXPECT_GT(b.coreStats().ipc(), a.coreStats().ipc() * 1.1);
}

TEST(CorePredicate, WrongSpeculativeCancellationFlushes)
{
    // A 50/50 guard keeps confidence low... force flushes with a mostly-
    // false guard that still flips sometimes: flushes must occur and the
    // machine must stay correct (committed count reached, no wedging).
    const Program bin = predicatedProgram(0.10, 4);
    CoreConfig cfg;
    cfg.scheme = PredictionScheme::PredicatePredictor;
    cfg.predication = PredicationModel::SelectivePrediction;
    OoOCore cpu(bin, cfg, 5);
    cpu.run(60000);
    EXPECT_GT(cpu.coreStats().predicateFlushes, 0u);
    EXPECT_GE(cpu.coreStats().committedInsts, 60000u);
}

TEST(CorePredicate, CommittedBranchOutcomesInvariantAcrossSchemes)
{
    // The oracle defines architectural behaviour: every scheme must
    // commit the conditional branches a functional run executes over the
    // same instructions (timing differs, outcomes cannot). Each run is
    // compared with its own instruction count, since how far commit
    // overshoots the target depends on the scheme.
    const Program bin =
        sim::buildBinary(profileByName("gzip"), /*if_convert=*/true);
    for (const auto scheme :
         {PredictionScheme::Conventional, PredictionScheme::PepPa,
          PredictionScheme::PredicatePredictor}) {
        CoreConfig cfg;
        cfg.scheme = scheme;
        OoOCore cpu(bin, cfg, 9);
        cpu.run(30000);
        const CoreStats &s = cpu.coreStats();

        Emulator emu(bin, 9);
        std::uint64_t cond_branches = 0;
        for (std::uint64_t i = 0; i < s.committedInsts; ++i)
            if (emu.step().ins->isConditionalBranch())
                ++cond_branches;
        EXPECT_GT(cond_branches, 0u);
        EXPECT_EQ(s.committedCondBranches, cond_branches)
            << "scheme " << static_cast<int>(scheme);
    }
}

TEST(CorePredicate, ShadowPredictorCountsPopulated)
{
    const Program bin = hoistedProgram(12);
    CoreConfig cfg;
    cfg.scheme = PredictionScheme::PredicatePredictor;
    cfg.shadowConventional = true;
    OoOCore cpu(bin, cfg, 3);
    cpu.run(40000);
    const auto &s = cpu.coreStats();
    // The 50/50 condition defeats the shadow conventional predictor, and
    // many of those cases are early-resolved by the predicate scheme.
    EXPECT_GT(s.shadowMispredicts, 1000u);
    EXPECT_GT(s.earlyResolvedShadowWrong, 500u);
}

TEST(CorePredicateDeath, SelectiveRequiresPredicatePredictor)
{
    const Program bin = hoistedProgram(5);
    CoreConfig cfg;
    cfg.scheme = PredictionScheme::Conventional;
    cfg.predication = PredicationModel::SelectivePrediction;
    EXPECT_DEATH({ OoOCore cpu(bin, cfg, 1); (void)cpu; }, "");
}
