/** @file Unit tests for the text tables. */

#include <sstream>

#include <gtest/gtest.h>

#include "common/table.hh"

using namespace pp;

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "23456"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTable, NumericRowFormatting)
{
    TextTable t;
    t.addRow("bench", {1.23456, 7.0}, 2);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("1.23"), std::string::npos);
    EXPECT_NE(os.str().find("7.00"), std::string::npos);
}
