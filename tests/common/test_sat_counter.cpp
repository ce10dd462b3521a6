/** @file Unit tests for SatCounter. */

#include <gtest/gtest.h>

#include "common/sat_counter.hh"

using namespace pp;

TEST(SatCounter, StartsAtInitialValue)
{
    EXPECT_EQ(SatCounter(2, 1).value(), 1u);
    EXPECT_EQ(SatCounter(3, 0).value(), 0u);
}

TEST(SatCounter, TakesTwoBytes)
{
    // Maximum and count are one byte each: a 2^19-entry PEP-PA PHT is
    // 1 MB, not the 4 MB two unsigneds would take.
    EXPECT_EQ(sizeof(SatCounter), 2u);
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.isSaturated());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, TakenIsMsb)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.taken()); // 0
    c.increment();
    EXPECT_FALSE(c.taken()); // 1
    c.increment();
    EXPECT_TRUE(c.taken()); // 2
    c.increment();
    EXPECT_TRUE(c.taken()); // 3
}

TEST(SatCounter, ResetZeroes)
{
    SatCounter c(3, 5);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_FALSE(c.isSaturated());
}

TEST(SatCounter, SaturateJumpsToMax)
{
    SatCounter c(4, 0);
    c.saturate();
    EXPECT_EQ(c.value(), 15u);
    EXPECT_TRUE(c.isSaturated());
}

class SatCounterWidthTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SatCounterWidthTest, MaxMatchesWidth)
{
    const unsigned bits = GetParam();
    SatCounter c(bits, 0);
    EXPECT_EQ(c.max(), (1u << bits) - 1);
    for (unsigned i = 0; i < c.max() + 5; ++i)
        c.increment();
    EXPECT_EQ(c.value(), c.max());
}

TEST_P(SatCounterWidthTest, ConfidenceProtocol)
{
    // The paper's confidence estimator: incremented on correct
    // predictions, zeroed on a misprediction, trusted when saturated.
    const unsigned bits = GetParam();
    SatCounter c(bits, 0);
    for (unsigned i = 0; i < c.max(); ++i) {
        EXPECT_FALSE(c.isSaturated());
        c.increment();
    }
    EXPECT_TRUE(c.isSaturated());
    c.reset(); // one misprediction
    EXPECT_FALSE(c.isSaturated());
    EXPECT_EQ(c.value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidthTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

// The width is checked in every build type: with one-byte fields a
// width above 8 would wrap, and width 0 would read saturated from the
// start.
TEST(SatCounterDeath, RejectsWidthZero)
{
    EXPECT_DEATH(SatCounter(0, 0), "width must be 1..8");
}

TEST(SatCounterDeath, RejectsWidthAboveEight)
{
    EXPECT_DEATH(SatCounter(9, 0), "width must be 1..8");
}

TEST(SatCounterDeath, RejectsInitialValueAboveMax)
{
    EXPECT_DEATH(SatCounter(2, 4), "initial value exceeds its maximum");
}
