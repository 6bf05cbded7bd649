/**
 * @file
 * Tests for the dependency-free JSON emitter/parser and the WallTimer
 * behind the machine-readable bench reports.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fetch_config.h"
#include "sim/bench_report.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "stats/report.h"
#include "stats/rng.h"
#include "workload/ibs.h"

namespace ibs {
namespace {

/** `depth` nested arrays around an empty innermost one. */
std::string
nestedArrays(int depth)
{
    return std::string(depth, '[') + std::string(depth, ']');
}

/** A table5-style report: both baselines over the IBS Mach suite. */
std::string
benchReportText()
{
    SuiteTraces suite(ibsSuite(OsType::Mach), 2000);
    const std::vector<FetchConfig> grid = {economyBaseline(),
                                           highPerfBaseline()};
    BenchReport report("table5_baselines");
    report.addSweep("ibs_mach", suite, grid, runSweep(suite, grid, 1),
                    {"economy", "high_performance"});
    return report.build().dump();
}

/** One byte flip, truncation or splice of `text`. */
void
mutate(std::string &text, Rng &rng)
{
    static const std::string kStructural = "{}[]\",:\\-0e.tn ";
    const size_t size = text.size();
    switch (rng.nextBounded(3)) {
      case 0:
        if (size == 0)
            return;
        text[rng.nextBounded(size)] = rng.nextBool(0.5)
            ? kStructural[rng.nextBounded(kStructural.size())]
            : static_cast<char>(rng.nextBounded(256));
        return;
      case 1:
        text.resize(rng.nextBounded(size + 1));
        return;
      default: {
        const size_t from = rng.nextBounded(size + 1);
        const size_t len = rng.nextBounded(size - from + 1);
        text.insert(rng.nextBounded(size + 1), text.substr(from, len));
        return;
      }
    }
}

TEST(Json, KindsAndAccessors)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_TRUE(Json::null().isNull());
    EXPECT_TRUE(Json::boolean(true).asBool());
    EXPECT_FALSE(Json::boolean(false).asBool());
    EXPECT_TRUE(Json::number(1.5).isNumber());
    EXPECT_DOUBLE_EQ(Json::number(1.5).asNumber(), 1.5);
    EXPECT_TRUE(Json::string("x").isString());
    EXPECT_EQ(Json::string("x").asString(), "x");
    EXPECT_TRUE(Json::array().isArray());
    EXPECT_TRUE(Json::object().isObject());
}

TEST(Json, IntegersDumpWithoutDecimalPoint)
{
    EXPECT_EQ(Json::number(uint64_t{42}).dump(0), "42");
    EXPECT_EQ(Json::number(int64_t{-7}).dump(0), "-7");
    EXPECT_EQ(Json::number(0).dump(0), "0");
    // The full uint64 range survives (a double would round this).
    EXPECT_EQ(Json::number(UINT64_MAX).dump(0),
              "18446744073709551615");
    EXPECT_EQ(Json::number(std::numeric_limits<int64_t>::min()).dump(0),
              "-9223372036854775808");
}

TEST(Json, DoublesRoundTripExactly)
{
    for (double v : {0.1, 1.0 / 3.0, 2.5, 1e-300, 3.14159265358979,
                     123456789.123456789}) {
        const Json parsed = Json::parse(Json::number(v).dump(0));
        EXPECT_EQ(parsed.asNumber(), v) << "value " << v;
    }
}

TEST(Json, NonFiniteDoublesSerializeAsNull)
{
    EXPECT_EQ(Json::number(std::nan("")).dump(0), "null");
    EXPECT_EQ(
        Json::number(std::numeric_limits<double>::infinity()).dump(0),
        "null");
}

TEST(Json, StringEscaping)
{
    const Json s = Json::string("a\"b\\c\n\t\x01z");
    EXPECT_EQ(s.dump(0), "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
    EXPECT_EQ(Json::parse(s.dump(0)).asString(), s.asString());
}

TEST(Json, ObjectKeepsInsertionOrder)
{
    Json obj = Json::object()
        .set("zebra", Json::number(1))
        .set("alpha", Json::number(2))
        .set("mid", Json::number(3));
    EXPECT_EQ(obj.dump(0), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
    // Replacing a key keeps its original position.
    obj.set("alpha", Json::number(9));
    EXPECT_EQ(obj.dump(0), "{\"zebra\":1,\"alpha\":9,\"mid\":3}");
    EXPECT_EQ(obj.size(), 3u);
}

TEST(Json, LookupAndErrors)
{
    Json obj = Json::object().set("k", Json::number(5));
    ASSERT_NE(obj.find("k"), nullptr);
    EXPECT_DOUBLE_EQ(obj.at("k").asNumber(), 5.0);
    EXPECT_EQ(obj.find("missing"), nullptr);
    EXPECT_THROW(obj.at("missing"), std::out_of_range);

    Json arr = Json::array().push(Json::number(1));
    EXPECT_EQ(arr.size(), 1u);
    EXPECT_DOUBLE_EQ(arr.at(0).asNumber(), 1.0);
    EXPECT_THROW(arr.at(1), std::out_of_range);
}

TEST(Json, PrettyPrint)
{
    const Json doc = Json::object().set(
        "a", Json::array().push(Json::number(1)).push(Json::number(2)));
    EXPECT_EQ(doc.dump(2), "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
    EXPECT_EQ(doc.dump(0), "{\"a\":[1,2]}");
}

TEST(Json, ParseDocument)
{
    const Json doc = Json::parse(
        "  {\"s\": \"hi\", \"n\": -2.5e2, \"b\": true, "
        "\"z\": null, \"a\": [1, {\"k\": false}]} ");
    EXPECT_EQ(doc.at("s").asString(), "hi");
    EXPECT_DOUBLE_EQ(doc.at("n").asNumber(), -250.0);
    EXPECT_TRUE(doc.at("b").asBool());
    EXPECT_TRUE(doc.at("z").isNull());
    EXPECT_EQ(doc.at("a").size(), 2u);
    EXPECT_FALSE(doc.at("a").at(1).at("k").asBool());
}

TEST(Json, ParseRejectsMalformedInput)
{
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"k\" 1}"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(Json::parse("truth"), std::runtime_error);
    EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
}

TEST(Json, DumpParseRoundTripNestedDocument)
{
    const Json doc = Json::object()
        .set("bench", Json::string("t"))
        .set("cells",
             Json::array().push(
                 Json::object()
                     .set("instructions", Json::number(uint64_t{1} << 40))
                     .set("mpi", Json::number(3.75))))
        .set("ok", Json::boolean(true));
    const Json again = Json::parse(doc.dump(2));
    EXPECT_EQ(again.dump(2), Json::parse(again.dump(2)).dump(2));
    EXPECT_EQ(
        again.at("cells").at(0).at("instructions").asNumber(),
        static_cast<double>(uint64_t{1} << 40));
}

TEST(Json, HugeU64CountersRoundTripExactly)
{
    // UINT64_MAX: the largest counter the schema can carry. A double
    // cannot hold it, so the parser's integer path must keep it.
    const std::string max = "18446744073709551615";
    const Json parsed = Json::parse("{\"n\": " + max + "}");
    EXPECT_EQ(parsed.at("n").dump(0), max);
    EXPECT_EQ(parsed.dump(0), "{\"n\":" + max + "}");

    // Emitting side: a uint64_t survives dump → parse → dump.
    const Json emitted = Json::object().set(
        "n", Json::number(uint64_t{18446744073709551615ull}));
    EXPECT_EQ(Json::parse(emitted.dump(0)).at("n").dump(0), max);
}

TEST(Json, IntegerOverflowFallsBackToDouble)
{
    // One past UINT64_MAX: strtoull sets ERANGE and the parser falls
    // through to the strtod value instead of wrapping around.
    const Json over = Json::parse("18446744073709551616");
    ASSERT_TRUE(over.isNumber());
    EXPECT_EQ(over.asNumber(), 18446744073709551616.0);
    EXPECT_NE(over.dump(0), "0"); // A wrap would print 0.

    const Json negative = Json::parse("-99999999999999999999");
    ASSERT_TRUE(negative.isNumber());
    EXPECT_EQ(negative.asNumber(), -1e20);
}

TEST(Json, TruncatedDocumentsThrowInsteadOfCrashing)
{
    const char *cases[] = {
        "",
        "{",
        "{\"a\"",
        "{\"a\":",
        "{\"a\":1",
        "{\"a\":1,",
        "[1, 2",
        "\"unterminated",
        "\"escape at end \\",
        "\"\\u12",
        "tru",
        "nul",
        "-",
        "1e",
        "{\"type\": \"sweep\", \"instructions\": ",
    };
    for (const char *text : cases)
        EXPECT_THROW(Json::parse(text), std::runtime_error) << text;
}

TEST(Json, NonUtf8BytesNeverCrashTheParser)
{
    // Raw high bytes inside and outside strings. The parser must
    // either accept them as opaque string bytes or throw — anything
    // but memory errors / aborts.
    const std::string in_string =
        std::string("{\"k\": \"a") + '\xff' + '\xfe' + "b\"}";
    try {
        const Json doc = Json::parse(in_string);
        EXPECT_EQ(doc.at("k").asString().size(), 4u);
    } catch (const std::runtime_error &) {
        // Rejecting is equally acceptable.
    }

    const std::string bare = std::string("\xff\x00\x80", 3);
    EXPECT_THROW(Json::parse(bare), std::runtime_error);

    // A frame payload that is all NUL bytes.
    EXPECT_THROW(Json::parse(std::string(32, '\0')),
                 std::runtime_error);
}

TEST(Json, NestingAtTheCapParsesAndOneLevelDeeperThrows)
{
    const int cap = Json::kMaxParseDepth;
    const Json arrays = Json::parse(nestedArrays(cap));
    const Json *inner = &arrays;
    for (int level = 1; level < cap; ++level)
        inner = &inner->at(0);
    EXPECT_TRUE(inner->isArray());
    EXPECT_EQ(inner->size(), 0u);
    EXPECT_THROW(Json::parse(nestedArrays(cap + 1)), std::runtime_error);

    // Objects count toward the same cap.
    std::string objects;
    for (int level = 0; level < cap; ++level)
        objects += "{\"k\":";
    objects += "0" + std::string(cap, '}');
    EXPECT_NO_THROW(Json::parse(objects));
    EXPECT_THROW(Json::parse("[" + objects + "]"), std::runtime_error);

    // 100 KB of openers: a stack overflow without the cap.
    EXPECT_THROW(Json::parse(std::string(100000, '[')),
                 std::runtime_error);
}

TEST(Json, MutatedDocumentsParseOrThrowRuntimeError)
{
    // Seeded byte flips, truncations and splices (one to four per
    // input) of a real bench report and a sweep request. Each input
    // must parse or throw std::runtime_error: no crash, no other
    // exception type.
    const std::string seeds[] = {
        benchReportText(),
        "{\"type\":\"sweep\",\"suite\":\"ibs_mach\",\"configs\":"
        "[\"economy\",\"high_performance\"],\"workloads\":"
        "[\"gs.mach\",\"nroff.mach\"],\"instructions\":20000,"
        "\"req_id\":\"r-1\"}",
    };
    Rng rng(1);
    for (const std::string &seed : seeds) {
        ASSERT_NO_THROW(Json::parse(seed));
        for (int i = 0; i < 2000; ++i) {
            std::string text = seed;
            for (uint64_t edits = 1 + rng.nextBounded(4); edits > 0;
                 --edits)
                mutate(text, rng);
            try {
                Json::parse(text);
            } catch (const std::runtime_error &) {
            } catch (const std::exception &e) {
                ADD_FAILURE() << "mutation " << i << ": " << e.what();
            }
        }
    }
}

TEST(WallTimer, MonotoneAndRestartable)
{
    WallTimer t;
    const double a = t.seconds();
    EXPECT_GE(a, 0.0);
    const double b = t.seconds();
    EXPECT_GE(b, a);
    t.restart();
    EXPECT_GE(t.seconds(), 0.0);
}

} // namespace
} // namespace ibs
