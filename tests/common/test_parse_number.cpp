/**
 * @file
 * Strict number parsing (common/parse_number.hh): the whole text must
 * be the number, so a mistyped flag or variable fails instead of
 * running with the prefix strtoull()/strtod() would have read.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/parse_number.hh"

using namespace pp;

TEST(ParseNumber, U64TakesDigitsOnly)
{
    EXPECT_EQ(parseU64("0"), std::uint64_t{0});
    EXPECT_EQ(parseU64("150000"), std::uint64_t{150000});
    EXPECT_EQ(parseU64("18446744073709551615"), UINT64_MAX);
    for (const char *bad :
         {"1e6", "2k", "", "-1", "+1", " 1", "1 ", "0x10", "1.0",
          "18446744073709551616", "nan", "inf"})
        EXPECT_FALSE(parseU64(bad).has_value()) << "'" << bad << "'";
}

TEST(ParseNumber, DecimalTakesFinitePlainDecimalsOnly)
{
    EXPECT_EQ(parseDecimal("0"), 0.0);
    EXPECT_EQ(parseDecimal("2.5"), 2.5);
    EXPECT_EQ(parseDecimal("10"), 10.0);
    EXPECT_EQ(parseDecimal(".5"), 0.5);
    for (const char *bad :
         {"1e6", "2k", "", "-1", "+1", "nan", "inf", "infinity", "2.5 ",
          " 2.5", "1.2.3", ".", "0x1p3", "nonsense"})
        EXPECT_FALSE(parseDecimal(bad).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(parseDecimal(std::string(400, '9')).has_value());
}

TEST(ParseNumberDeathTest, GarbageIsFatalNamingTheFlagAndValue)
{
    EXPECT_EXIT(parseU64("--warmup", "2k"), ::testing::ExitedWithCode(1),
                "invalid number for --warmup: '2k'");
    EXPECT_EXIT(parseDecimal("--check-bound", "nonsense"),
                ::testing::ExitedWithCode(1),
                "invalid number for --check-bound: 'nonsense'");
    EXPECT_EQ(parseU64("--warmup", "2000"), std::uint64_t{2000});
    EXPECT_EQ(parseDecimal("--check-bound", "2.5"), 2.5);
}
