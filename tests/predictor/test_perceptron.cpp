/** @file Unit tests for the conventional perceptron predictor. */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "predictor/perceptron.hh"

using namespace pp;
using namespace pp::predictor;

namespace
{

bool
step(PerceptronPredictor &p, Addr pc, bool actual)
{
    BranchContext ctx;
    ctx.pc = pc;
    PredState st;
    const bool pred = p.predict(ctx, st);
    if (pred != actual)
        p.correctHistory(st, actual);
    p.resolve(ctx, st, actual);
    return pred;
}

/**
 * The table's arithmetic one weight at a time: the bias plus ±w per
 * history bit, and a ±1 bump per weight clamped to ±127.
 */
class ReferenceTable
{
  public:
    ReferenceTable(unsigned global_bits, unsigned local_bits)
        : g(global_bits), l(local_bits)
    {
    }

    std::int32_t
    output(std::uint32_t r, std::uint64_t ghist, std::uint64_t lhist)
    {
        const std::vector<int> &w = rowOf(r);
        std::int32_t sum = w[0];
        for (unsigned i = 0; i < g; ++i)
            sum += ((ghist >> i) & 1) ? w[1 + i] : -w[1 + i];
        for (unsigned j = 0; j < l; ++j)
            sum += ((lhist >> j) & 1) ? w[1 + g + j] : -w[1 + g + j];
        return sum;
    }

    void
    train(std::uint32_t r, std::uint64_t ghist, std::uint64_t lhist,
          bool taken)
    {
        std::vector<int> &w = rowOf(r);
        const auto bump = [](int &x, bool up) {
            x = std::clamp(x + (up ? 1 : -1), -127, 127);
        };
        bump(w[0], taken);
        for (unsigned i = 0; i < g; ++i)
            bump(w[1 + i], ((ghist >> i) & 1) == taken);
        for (unsigned j = 0; j < l; ++j)
            bump(w[1 + g + j], ((lhist >> j) & 1) == taken);
    }

    /** Weights seen at +127 and at -127 so far. */
    bool
    hitBothRails() const
    {
        bool hi = false;
        bool lo = false;
        for (const auto &w : rows) {
            hi = hi || std::count(w.begin(), w.end(), 127) > 0;
            lo = lo || std::count(w.begin(), w.end(), -127) > 0;
        }
        return hi && lo;
    }

  private:
    std::vector<int> &
    rowOf(std::uint32_t r)
    {
        while (r >= rows.size())
            rows.emplace_back(1 + g + l, 0);
        return rows[r];
    }

    unsigned g;
    unsigned l;
    std::vector<std::vector<int>> rows;
};

/**
 * Drive @p table and a reference with one seeded random sequence,
 * comparing every output after every train. Each row repeats one
 * (ghist, lhist, taken) pattern 90% of the time for a 3000-step phase,
 * long enough to pin its weights at a rail, and each phase draws new
 * patterns so the weights cross to the other rail. Histories carry
 * random bits above their width, which the table must ignore.
 */
void
expectMatchesReference(PerceptronTable &table, unsigned global_bits,
                       unsigned local_bits, unsigned keys,
                       std::uint64_t seed)
{
    ReferenceTable ref(global_bits, local_bits);
    Rng rng(seed);
    struct Pattern
    {
        std::uint64_t ghist, lhist;
        bool taken;
    };
    std::vector<Pattern> patterns(keys);
    for (int step = 0; step < 24000; ++step) {
        if (step % 3000 == 0)
            for (auto &p : patterns)
                p = {rng.next64(), rng.next64(), rng.bernoulli(0.5)};
        const auto key = static_cast<std::uint32_t>(rng.below(keys));
        Pattern p = patterns[key];
        if (rng.bernoulli(0.1))
            p = {rng.next64(), rng.next64(), rng.bernoulli(0.5)};
        const std::uint32_t r = table.row(key * 0x9e3779b9ull);
        ASSERT_EQ(table.output(r, p.ghist, p.lhist),
                  ref.output(r, p.ghist, p.lhist))
            << "step " << step;
        table.train(r, p.ghist, p.lhist, p.taken);
        ref.train(r, p.ghist, p.lhist, p.taken);
        ASSERT_EQ(table.output(r, p.ghist, p.lhist),
                  ref.output(r, p.ghist, p.lhist))
            << "step " << step;
        const std::uint64_t g = rng.next64();
        const std::uint64_t l = rng.next64();
        ASSERT_EQ(table.output(r, g, l), ref.output(r, g, l))
            << "step " << step;
    }
    EXPECT_TRUE(ref.hitBothRails());
}

} // namespace

TEST(Perceptron, StorageNearBudget)
{
    const std::uint64_t kb = PerceptronPredictor().storageBytes() / 1024;
    EXPECT_GE(kb, 140u);
    EXPECT_LE(kb, 156u);
}

TEST(Perceptron, LatencyIsThreeCycles)
{
    EXPECT_EQ(PerceptronPredictor().latency(), 3u);
}

TEST(Perceptron, LearnsBiasedBranch)
{
    PerceptronPredictor p;
    int miss = 0;
    for (int i = 0; i < 2000; ++i)
        miss += step(p, 0x100, false) != false;
    EXPECT_LT(miss, 10);
}

class PerceptronCorrelationTest
    : public ::testing::TestWithParam<int> // 0=copy 1=and 2=or
{
};

TEST_P(PerceptronCorrelationTest, LearnsGlobalCorrelation)
{
    PerceptronPredictor p;
    Rng rng(77);
    int miss = 0, n = 0;
    for (int i = 0; i < 20000; ++i) {
        const bool c1 = rng.bernoulli(0.5);
        const bool c2 = rng.bernoulli(0.5);
        bool c3 = false;
        switch (GetParam()) {
          case 0: c3 = c1; break;
          case 1: c3 = c1 && c2; break;
          case 2: c3 = c1 || c2; break;
        }
        step(p, 0x100, c1);
        step(p, 0x200, c2);
        const bool pred = step(p, 0x300, c3);
        if (i > 3000) {
            ++n;
            miss += pred != c3;
        }
    }
    EXPECT_LT(double(miss) / n, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Fns, PerceptronCorrelationTest,
                         ::testing::Values(0, 1, 2));

TEST(Perceptron, LearnsLocalPattern)
{
    PerceptronPredictor p;
    // Period-7 pattern fits the 10-bit local history.
    const bool pat[7] = {true, true, false, true, false, false, true};
    int miss = 0, n = 0;
    for (int i = 0; i < 10000; ++i) {
        const bool dir = pat[i % 7];
        const bool pred = step(p, 0x700, dir);
        if (i > 2000) {
            ++n;
            miss += pred != dir;
        }
    }
    EXPECT_LT(double(miss) / n, 0.02);
}

TEST(Perceptron, SquashRestoresGlobalHistory)
{
    PerceptronPredictor p;
    BranchContext ctx;
    ctx.pc = 0x900;
    const std::uint64_t before = p.history();
    PredState s1, s2;
    p.predict(ctx, s1);
    p.predict(ctx, s2);
    p.squash(s2);
    p.squash(s1);
    EXPECT_EQ(p.history(), before);
}

TEST(Perceptron, NoAliasModeGrowsPrivateRows)
{
    PerceptronConfig cfg;
    cfg.tableEntries = 4;
    cfg.noAlias = true;
    PerceptronPredictor p(cfg);
    // Ten distinct PCs on a 4-entry table: no interference allowed.
    for (int pc = 0; pc < 10; ++pc)
        for (int i = 0; i < 300; ++i)
            step(p, 0x1000 + pc * 4, pc % 2 == 0);
    int miss = 0;
    for (int pc = 0; pc < 10; ++pc)
        miss += step(p, 0x1000 + pc * 4, pc % 2 == 0) != (pc % 2 == 0);
    EXPECT_EQ(miss, 0);
}

TEST(Perceptron, ThresholdStopsTrainingOnConfidentCorrect)
{
    // After heavy training of a constant branch, weights saturate; just
    // verify predictions remain stable over a long horizon (no runaway).
    PerceptronPredictor p;
    for (int i = 0; i < 20000; ++i)
        step(p, 0xa00, true);
    EXPECT_TRUE(step(p, 0xa00, true));
}

class PerceptronKernelTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(PerceptronKernelTest, MatchesPerBitReference)
{
    const auto [g, l] = GetParam();
    PerceptronTable table(7, g, l, /*no_alias=*/false);
    expectMatchesReference(table, g, l, 7, 1000 + 64 * g + l);
    EXPECT_EQ(table.storageBytes(), 7u * (1 + g + l));
}

// Every geometry the harnesses sweep, plus rows of all 64 weights:
// split, all global (the local history shifts out past bit 63) and all
// local.
INSTANTIATE_TEST_SUITE_P(
    Geometries, PerceptronKernelTest,
    ::testing::Values(std::make_tuple(20u, 6u), std::make_tuple(20u, 10u),
                      std::make_tuple(20u, 14u), std::make_tuple(30u, 6u),
                      std::make_tuple(30u, 10u), std::make_tuple(30u, 14u),
                      std::make_tuple(40u, 23u), std::make_tuple(63u, 0u),
                      std::make_tuple(0u, 63u)));

TEST(PerceptronKernel, NoAliasGrowthMatchesReference)
{
    // Four rows to start; 40 keys grow it to 40 private rows.
    PerceptronTable table(4, 30, 10, /*no_alias=*/true);
    expectMatchesReference(table, 30, 10, 40, 17);
    EXPECT_EQ(table.storageBytes(), 40u * 41u);
}

TEST(PerceptronKernelDeathTest, RowOverSixtyFourWeightsPanics)
{
    EXPECT_DEATH(PerceptronTable(16, 40, 24, false),
                 "perceptron rows hold at most 64 weights");
}
