/** @file Tests for the profile-guided if-conversion pass. */

#include <gtest/gtest.h>

#include "common/sat_counter.hh"
#include "program/codegen.hh"
#include "program/emulator.hh"
#include "program/ifconvert.hh"
#include "program/suite.hh"

using namespace pp;
using namespace pp::program;

namespace
{

IfConvertOptions
fastOpts(const BenchmarkProfile &prof)
{
    IfConvertOptions o;
    o.mispredThreshold = prof.ifcMispredThreshold;
    o.maxBlockLen = prof.ifcMaxBlockLen;
    o.profileSteps = 300000;
    o.profileSeed = prof.seed ^ 0x5eedf00dull;
    return o;
}

} // namespace

TEST(IfConvert, RemovesBranchesAndPredicatesBlocks)
{
    const auto prof = profileByName("crafty");
    CodeGenerator gen(prof);
    const AsmProgram plain = gen.generate();
    IfConvertStats stats;
    const AsmProgram conv = ifConvert(plain, fastOpts(prof), &stats);

    EXPECT_GT(stats.regionsConverted, 0u);
    EXPECT_LE(stats.regionsConverted, stats.regionsTotal);
    EXPECT_GT(stats.branchesRemoved, 0u);
    EXPECT_GT(stats.instsPredicated, 0u);
    EXPECT_EQ(conv.items().size(),
              plain.items().size() - stats.branchesRemoved);

    const Program bin = conv.assemble(prof.dataBytes, "c");
    EXPECT_EQ(bin.countIfConverted(), stats.instsPredicated);
    // branchesRemoved also counts diamonds' internal unconditional join
    // branches; exactly one *conditional* branch disappears per region.
    EXPECT_EQ(bin.countConditionalBranches(),
              plain.assemble(prof.dataBytes, "p")
                  .countConditionalBranches() - stats.regionsConverted);
    // Compares are never removed: the predicate predictor's information
    // source survives if-conversion (the paper's key property).
    EXPECT_EQ(bin.countCompares(),
              plain.assemble(prof.dataBytes, "p").countCompares());
}

TEST(IfConvert, HardRegionsConvertedEasyOnesKept)
{
    const auto prof = profileByName("crafty");
    CodeGenerator gen(prof);
    const AsmProgram plain = gen.generate();
    IfConvertStats stats;
    auto opts = fastOpts(prof);
    ifConvert(plain, opts, &stats);
    for (const auto &d : stats.decisions) {
        if (d.hardness >= 0.30 && d.blockLen <= opts.maxBlockLen) {
            EXPECT_TRUE(d.converted)
                << "hard region (rate " << d.hardness << ") not converted";
        }
        if (d.converted) {
            EXPECT_GE(d.hardness, opts.mispredThreshold);
        }
    }
}

TEST(IfConvert, ThresholdOneConvertsNothing)
{
    const auto prof = profileByName("gzip");
    CodeGenerator gen(prof);
    const AsmProgram plain = gen.generate();
    auto opts = fastOpts(prof);
    opts.mispredThreshold = 1.1;
    IfConvertStats stats;
    const AsmProgram conv = ifConvert(plain, opts, &stats);
    EXPECT_EQ(stats.regionsConverted, 0u);
    EXPECT_EQ(conv.items().size(), plain.items().size());
}

TEST(IfConvert, ProfileMatchesARecordByRecordReference)
{
    // The profile runs on the skip tier over recorded condition
    // streams; the reference steps record by record and scores every
    // true-QP compare as it executes. Same seeds and step count as the
    // if-conversion each binary build runs, so the rates must be equal
    // to the bit on every profile.
    for (const BenchmarkProfile &prof : extendedSuite()) {
        SCOPED_TRACE(prof.name);
        IfConvertOptions opts;
        opts.profileSeed = prof.seed ^ 0x5eedf00dull;
        const AsmProgram plain = CodeGenerator(prof).generate();

        const Program binary = plain.assemble(1 << 20, "profile");
        Emulator emu(binary, opts.profileSeed);
        const std::size_t ncond = binary.conditions().size();
        std::vector<SatCounter> bimodal(ncond, SatCounter(2, 1));
        std::vector<std::uint64_t> evals(ncond, 0);
        std::vector<std::uint64_t> misses(ncond, 0);
        for (std::uint64_t i = 0; i < opts.profileSteps; ++i) {
            const ExecRecord rec = emu.step();
            if (!rec.ins->isCompare() || !rec.qpVal)
                continue;
            const CondId id = rec.ins->condId;
            ++evals[id];
            if (bimodal[id].taken() != rec.condVal)
                ++misses[id];
            if (rec.condVal)
                bimodal[id].increment();
            else
                bimodal[id].decrement();
        }
        std::vector<double> expected(ncond, 0.0);
        for (std::size_t c = 0; c < ncond; ++c) {
            if (evals[c] >= opts.minEvals)
                expected[c] = static_cast<double>(misses[c]) /
                    static_cast<double>(evals[c]);
        }

        EXPECT_EQ(profileConditionHardness(plain, opts), expected);
    }
}

TEST(IfConvert, ThresholdZeroConvertsAllSmallRegions)
{
    const auto prof = profileByName("gzip");
    CodeGenerator gen(prof);
    const AsmProgram plain = gen.generate();
    auto opts = fastOpts(prof);
    opts.mispredThreshold = 0.0;
    opts.minEvals = 0;
    IfConvertStats stats;
    ifConvert(plain, opts, &stats);
    for (const auto &d : stats.decisions) {
        if (d.blockLen <= opts.maxBlockLen) {
            EXPECT_TRUE(d.converted);
        }
    }
}

/**
 * The central semantic property: if-conversion must not change program
 * behaviour. The observable behaviour here is the sequence of condition
 * evaluations and their outcomes (cmp.unc compares always evaluate), plus
 * the sequence of memory writes.
 */
class IfConvertEquivalenceTest
    : public ::testing::TestWithParam<BenchmarkProfile>
{
};

TEST_P(IfConvertEquivalenceTest, ExecutionIsEquivalent)
{
    const auto prof = GetParam();
    CodeGenerator gen(prof);
    const AsmProgram plain_asm = gen.generate();
    const AsmProgram conv_asm = ifConvert(plain_asm, fastOpts(prof));
    const Program plain = plain_asm.assemble(prof.dataBytes, "p");
    const Program conv = conv_asm.assemble(prof.dataBytes, "c");

    Emulator ep(plain, prof.seed);
    Emulator ec(conv, prof.seed);

    // Collect the (condId, outcome) stream and store (addr) stream from
    // both executions; they must match event-for-event.
    auto collect = [](Emulator &e, std::size_t events) {
        std::vector<std::tuple<std::uint32_t, bool, Addr>> out;
        while (out.size() < events) {
            const ExecRecord r = e.step();
            if (r.ins->isCompare() && r.qpVal)
                out.emplace_back(r.ins->condId, r.condVal, 0);
            else if (r.ins->isStore() && r.qpVal)
                out.emplace_back(0xffffffff, false, r.memAddr);
        }
        return out;
    };

    const auto a = collect(ep, 20000);
    const auto b = collect(ec, 20000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "divergence at event " << i;
}

INSTANTIATE_TEST_SUITE_P(
    SuiteSubset, IfConvertEquivalenceTest,
    ::testing::Values(profileByName("gzip"), profileByName("crafty"),
                      profileByName("twolf"), profileByName("swim"),
                      profileByName("art")),
    [](const ::testing::TestParamInfo<BenchmarkProfile> &info) {
        return info.param.name;
    });
