/**
 * @file
 * Unit tests for TextTable rendering.
 */

#include <gtest/gtest.h>

#include "stats/table.h"

namespace ibs {
namespace {

TEST(TextTable, RendersTitleHeaderAndRows)
{
    TextTable t("My Table");
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("== My Table =="), std::string::npos);
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("1"), std::string::npos);
}

TEST(TextTable, ColumnsAligned)
{
    TextTable t;
    t.setHeader({"name", "v"});
    t.addRow({"x", "10"});
    t.addRow({"longer", "2"});
    const std::string out = t.render();
    // Both data rows start their second column at the same offset.
    const size_t l1 = out.find("x ");
    ASSERT_NE(l1, std::string::npos);
    // "longer" is 6 chars; "x" padded to 6.
    EXPECT_NE(out.find("x       10"), std::string::npos);
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(0.3456, 2), "0.35");
    EXPECT_EQ(TextTable::num(0.3456, 3), "0.346");
    EXPECT_EQ(TextTable::num(uint64_t{1234}), "1234");
}

TEST(TextTable, RuleInRender)
{
    TextTable t;
    t.setHeader({"aaaa"});
    t.addRow({"1"});
    t.addRule();
    t.addRow({"2"});
    const std::string out = t.render();
    // Header rule plus the explicit one.
    size_t first = out.find("----");
    ASSERT_NE(first, std::string::npos);
    EXPECT_NE(out.find("----", first + 4), std::string::npos);
}

} // namespace
} // namespace ibs
