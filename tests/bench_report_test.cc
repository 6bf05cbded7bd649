/**
 * @file
 * Tests for the BENCH_<name>.json report: schema shape, the
 * FetchConfig/FetchStats/CellTiming JSON converters, the sweep
 * integration, and the $IBS_BENCH_JSON_DIR output path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/bench_report.h"
#include "sim/sweep.h"
#include "workload/ibs.h"

namespace ibs {
namespace {

TEST(BenchReportJson, FetchConfigFields)
{
    const Json j = toJson(
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 2));
    EXPECT_EQ(j.at("l1").at("size_bytes").asNumber(), 8 * 1024);
    EXPECT_TRUE(j.at("has_l2").asBool());
    EXPECT_EQ(j.at("l2").at("assoc").asNumber(), 2);
    ASSERT_NE(j.find("l2_fill"), nullptr);
    EXPECT_FALSE(j.at("bypass").asBool());
    EXPECT_EQ(j.at("prefetch_lines").asNumber(), 0);

    // Without an L2 the l2/l2_fill objects are omitted entirely.
    const Json base = toJson(economyBaseline());
    EXPECT_FALSE(base.at("has_l2").asBool());
    EXPECT_EQ(base.find("l2"), nullptr);
    EXPECT_EQ(base.find("l2_fill"), nullptr);
}

TEST(BenchReportJson, FetchStatsFieldsMatchDerivedMetrics)
{
    FetchStats s;
    s.instructions = 1000;
    s.cycles = 1600;
    s.l1Misses = 40;
    const Json j = toJson(s);
    EXPECT_EQ(j.at("instructions").asNumber(), 1000);
    EXPECT_EQ(j.at("l1_misses").asNumber(), 40);
    EXPECT_DOUBLE_EQ(j.at("mpi100").asNumber(), s.mpi100());
    EXPECT_DOUBLE_EQ(j.at("cpi_instr").asNumber(), s.cpiInstr());
    EXPECT_DOUBLE_EQ(j.at("l2_miss_ratio").asNumber(),
                     s.l2MissRatio());
}

TEST(BenchReportJson, TimingJson)
{
    const Json t = timingJson(2.0, 1000000);
    EXPECT_DOUBLE_EQ(t.at("wall_seconds").asNumber(), 2.0);
    EXPECT_EQ(t.at("instructions").asNumber(), 1000000);
    EXPECT_DOUBLE_EQ(t.at("instructions_per_second").asNumber(),
                     500000.0);
    // Untimed cells report zero throughput, not a division by zero.
    EXPECT_DOUBLE_EQ(
        timingJson(0.0, 500).at("instructions_per_second").asNumber(),
        0.0);
}

TEST(BenchReport, BuildMatchesSchema)
{
    BenchReport report("unit_test");
    report.addCell(
        "wl_a", Json::object().set("knob", Json::number(1)),
        Json::object().set("metric", Json::number(2.5)), 0.25, 1000,
        "grid_x", "cfg0");
    report.addCell("wl_b", Json::object(),
                   Json::object().set("metric", Json::number(7)),
                   0.5, 2000);
    report.meta().set("note", Json::string("hello"));
    EXPECT_EQ(report.cellCount(), 2u);

    // The document must survive its own parser.
    const Json doc = Json::parse(report.build().dump());
    EXPECT_EQ(doc.at("schema_version").asNumber(), 2);
    EXPECT_EQ(doc.at("bench").asString(), "unit_test");
    EXPECT_GE(doc.at("threads").asNumber(), 1);
    EXPECT_EQ(doc.at("meta").at("note").asString(), "hello");
    // Standard provenance fields every report carries (schema v2).
    const Json &meta = doc.at("meta");
    EXPECT_TRUE(meta.at("compiler").isString());
    EXPECT_TRUE(meta.at("build_type").isString());
    EXPECT_EQ(meta.at("schema_version").asNumber(), 2);
    EXPECT_GE(meta.at("threads").asNumber(), 1);
    EXPECT_GE(meta.at("bench_instructions").asNumber(), 1);
    EXPECT_GE(doc.at("total_wall_seconds").asNumber(), 0.0);

    const Json &cells = doc.at("cells");
    ASSERT_EQ(cells.size(), 2u);
    const Json &first = cells.at(0);
    EXPECT_EQ(first.at("grid").asString(), "grid_x");
    EXPECT_EQ(first.at("config_label").asString(), "cfg0");
    EXPECT_EQ(first.at("workload").asString(), "wl_a");
    EXPECT_EQ(first.at("config").at("knob").asNumber(), 1);
    EXPECT_DOUBLE_EQ(first.at("stats").at("metric").asNumber(), 2.5);
    EXPECT_DOUBLE_EQ(first.at("timing").at("wall_seconds").asNumber(),
                     0.25);
    EXPECT_EQ(first.at("timing").at("instructions").asNumber(), 1000);
    // Optional tags are omitted, not emitted empty.
    const Json &second = cells.at(1);
    EXPECT_EQ(second.find("grid"), nullptr);
    EXPECT_EQ(second.find("config_label"), nullptr);
}

TEST(BenchReport, AddSweepEmitsOneCellPerGridPointPerWorkload)
{
    SuiteTraces suite({makeSpec(SpecBenchmark::Espresso),
                       makeSpec(SpecBenchmark::Gcc)},
                      5000);
    const std::vector<FetchConfig> grid = {economyBaseline(),
                                           highPerfBaseline()};
    const SweepResult result = runSweep(suite, grid, 1);

    BenchReport report("sweep_unit_test");
    report.addSweep("main", suite, grid, result, {"econ", "hp"});
    ASSERT_EQ(report.cellCount(), grid.size() * suite.count());

    const Json doc = report.build();
    const Json &cells = doc.at("cells");
    // Cells are config-major, matching the sweep result layout.
    const Json &c0w0 = cells.at(0);
    EXPECT_EQ(c0w0.at("grid").asString(), "main");
    EXPECT_EQ(c0w0.at("config_index").asNumber(), 0);
    EXPECT_EQ(c0w0.at("config_label").asString(), "econ");
    EXPECT_EQ(c0w0.at("workload").asString(), suite.name(0));
    EXPECT_EQ(c0w0.at("stats").at("instructions").asNumber(),
              static_cast<double>(result.cell(0, 0).instructions));
    EXPECT_EQ(c0w0.at("timing").at("instructions").asNumber(),
              static_cast<double>(result.timing(0, 0).instructions));
    const Json &c1w1 = cells.at(3);
    EXPECT_EQ(c1w1.at("config_label").asString(), "hp");
    EXPECT_EQ(c1w1.at("workload").asString(), suite.name(1));
}

TEST(BenchReport, WriteHonorsEnvDir)
{
    const std::string dir = testing::TempDir();
    setenv("IBS_BENCH_JSON_DIR", dir.c_str(), 1);
    const std::string path =
        BenchReport::outputPath("env_dir_unit_test");
    EXPECT_EQ(path.rfind(dir, 0), 0u)
        << path << " not under " << dir;

    BenchReport report("env_dir_unit_test");
    report.addCell("wl", Json::object(),
                   Json::object().set("m", Json::number(1)), 0.0, 10);
    ASSERT_TRUE(report.write());
    unsetenv("IBS_BENCH_JSON_DIR");

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream text;
    text << in.rdbuf();
    const Json doc = Json::parse(text.str());
    EXPECT_EQ(doc.at("bench").asString(), "env_dir_unit_test");
    EXPECT_EQ(doc.at("cells").size(), 1u);
    std::remove(path.c_str());
}

TEST(BenchReport, WriteFailureReturnsFalse)
{
    setenv("IBS_BENCH_JSON_DIR", "/nonexistent_dir_for_ibs_test", 1);
    BenchReport report("unwritable_unit_test");
    EXPECT_FALSE(report.write());
    unsetenv("IBS_BENCH_JSON_DIR");
}

} // namespace
} // namespace ibs
