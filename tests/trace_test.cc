/**
 * @file
 * Unit tests for trace records, streams, file round-trips and the
 * Monster capture model.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/rng.h"
#include "trace/file.h"
#include "trace/monster.h"
#include "trace/record.h"
#include "trace/stream.h"

namespace ibs {
namespace {

std::vector<TraceRecord>
sampleRecords()
{
    return {
        {0x00400000, 1, RefKind::InstrFetch},
        {0x00400004, 1, RefKind::InstrFetch},
        {0x30001000, 1, RefKind::DataRead},
        {0x80031000, 0, RefKind::InstrFetch},
        {0x30001004, 1, RefKind::DataWrite},
        {0x00400008, 1, RefKind::InstrFetch},
    };
}

TEST(TraceRecord, Predicates)
{
    TraceRecord instr{0x1000, 1, RefKind::InstrFetch};
    TraceRecord load{0x1000, 1, RefKind::DataRead};
    TraceRecord store{0x1000, 1, RefKind::DataWrite};
    EXPECT_TRUE(instr.isInstr());
    EXPECT_FALSE(instr.isData());
    EXPECT_FALSE(instr.isWrite());
    EXPECT_TRUE(load.isData());
    EXPECT_FALSE(load.isWrite());
    EXPECT_TRUE(store.isData());
    EXPECT_TRUE(store.isWrite());
}

TEST(TraceRecord, ToString)
{
    TraceRecord rec{0x1000, 3, RefKind::InstrFetch};
    EXPECT_EQ(toString(rec), "I 3:0x00001000");
    rec.kind = RefKind::DataWrite;
    EXPECT_EQ(toString(rec), "W 3:0x00001000");
}

TEST(VectorTraceStream, ProducesAllThenEnds)
{
    VectorTraceStream s(sampleRecords());
    TraceRecord rec;
    size_t n = 0;
    while (s.next(rec))
        ++n;
    EXPECT_EQ(n, 6u);
    EXPECT_FALSE(s.next(rec));
}

TEST(VectorTraceStream, ResetReplays)
{
    VectorTraceStream s(sampleRecords());
    TraceRecord a, b;
    ASSERT_TRUE(s.next(a));
    s.reset();
    ASSERT_TRUE(s.next(b));
    EXPECT_EQ(a, b);
}

TEST(TakeStream, LimitsCount)
{
    VectorTraceStream inner(sampleRecords());
    TakeStream take(inner, 3);
    EXPECT_EQ(drain(take).size(), 3u);
}

TEST(TakeStream, ResetRestoresBudget)
{
    VectorTraceStream inner(sampleRecords());
    TakeStream take(inner, 2);
    drain(take);
    take.reset();
    EXPECT_EQ(drain(take).size(), 2u);
}

TEST(FilterKindStream, SelectsKind)
{
    VectorTraceStream inner(sampleRecords());
    FilterKindStream instr(inner, RefKind::InstrFetch);
    const auto out = drain(instr);
    EXPECT_EQ(out.size(), 4u);
    for (const auto &rec : out)
        EXPECT_TRUE(rec.isInstr());
}

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per case (and per process): ctest runs each case
        // as its own test, concurrently under -j.
        path_ = ::testing::TempDir() + "/ibs_trace_test_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name() +
            "_" + std::to_string(::getpid()) + ".ibst";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(TraceFileTest, RoundTripSmall)
{
    const auto records = sampleRecords();
    {
        TraceFileWriter writer(path_);
        for (const auto &rec : records)
            writer.write(rec);
        EXPECT_EQ(writer.count(), records.size());
    }
    TraceFileReader reader(path_);
    EXPECT_EQ(reader.totalRecords(), records.size());
    const auto back = drain(reader);
    ASSERT_EQ(back.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(back[i], records[i]) << "record " << i;
}

TEST_F(TraceFileTest, RoundTripLargeRandom)
{
    Rng rng(123);
    std::vector<TraceRecord> records;
    records.reserve(50000);
    uint64_t pc = 0x00400000;
    for (int i = 0; i < 50000; ++i) {
        TraceRecord rec;
        const int k = static_cast<int>(rng.nextBounded(10));
        if (k < 7) {
            rec = {pc, static_cast<Asid>(rng.nextBounded(4)),
                   RefKind::InstrFetch};
            pc = rng.nextBool(0.2) ? 0x00400000 + rng.nextBounded(1
                                          << 20) * 4
                                   : pc + 4;
        } else {
            rec = {0x30000000 + rng.nextBounded(1 << 22) * 4,
                   static_cast<Asid>(rng.nextBounded(4)),
                   k < 9 ? RefKind::DataRead : RefKind::DataWrite};
        }
        records.push_back(rec);
    }
    {
        TraceFileWriter writer(path_);
        for (const auto &rec : records)
            writer.write(rec);
    }
    TraceFileReader reader(path_);
    const auto back = drain(reader);
    ASSERT_EQ(back.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i)
        ASSERT_EQ(back[i], records[i]) << "record " << i;
}

TEST_F(TraceFileTest, SequentialStreamCompressesWell)
{
    // Mostly-sequential instruction traces should take ~2 bytes per
    // record thanks to delta encoding.
    {
        TraceFileWriter writer(path_);
        for (uint64_t i = 0; i < 100000; ++i)
            writer.write({0x00400000 + i * 4, 1,
                          RefKind::InstrFetch});
    }
    std::FILE *f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    EXPECT_LT(size, 100000 * 3);
}

TEST_F(TraceFileTest, RoundTripAsidSwitchesAndNegativeDeltas)
{
    // Alternating address spaces force an ASID varint on almost every
    // record, and the descending PC stream exercises negative
    // (zigzag-encoded) deltas throughout.
    std::vector<TraceRecord> records;
    uint64_t pc = 0x00500000;
    for (int i = 0; i < 1000; ++i) {
        records.push_back({pc, static_cast<Asid>(i % 5),
                           RefKind::InstrFetch});
        pc -= 4;
    }
    {
        TraceFileWriter writer(path_);
        for (const auto &rec : records)
            writer.write(rec);
    }
    TraceFileReader reader(path_);
    const auto back = drain(reader);
    ASSERT_EQ(back.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i)
        ASSERT_EQ(back[i], records[i]) << "record " << i;
}

TEST_F(TraceFileTest, RoundTripAcrossBufferBoundary)
{
    // Far-apart addresses cost ~10 bytes per delta, so 20k records
    // span several 64-KiB write/read buffers; records must survive
    // straddling the boundaries.
    std::vector<TraceRecord> records;
    Rng rng(7);
    for (int i = 0; i < 20000; ++i)
        records.push_back({rng.next(), 1, RefKind::InstrFetch});
    {
        TraceFileWriter writer(path_);
        for (const auto &rec : records)
            writer.write(rec);
    }
    EXPECT_GT(std::filesystem::file_size(path_), uint64_t{2} << 16);
    TraceFileReader reader(path_);
    const auto back = drain(reader);
    ASSERT_EQ(back.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i)
        ASSERT_EQ(back[i], records[i]) << "record " << i;
}

TEST_F(TraceFileTest, TruncatedFileThrowsOnRead)
{
    {
        TraceFileWriter writer(path_);
        for (uint64_t i = 0; i < 1000; ++i)
            writer.write({0x00400000 + i * 4, 1,
                          RefKind::InstrFetch});
    }
    // Cut the payload mid-record; the header still promises 1000.
    std::filesystem::resize_file(path_, 20);
    TraceFileReader reader(path_);
    EXPECT_EQ(reader.totalRecords(), 1000u);
    TraceRecord rec;
    EXPECT_THROW(
        {
            while (reader.next(rec)) {
            }
        },
        std::runtime_error);
}

// Regression: the destructor used to call the throwing close()
// unprotected — an I/O failure during cleanup crashed the process via
// std::terminate. It must swallow the error (with a warning) instead;
// callers who care call close() themselves and get the exception.
TEST(TraceFileWriterFullDisk, DestructorDoesNotTerminate)
{
    if (std::FILE *probe = std::fopen("/dev/full", "wb"))
        std::fclose(probe);
    else
        GTEST_SKIP() << "/dev/full not available";
    {
        TraceFileWriter writer("/dev/full");
        for (uint64_t i = 0; i < 100; ++i)
            writer.write({0x1000 + i * 4, 1, RefKind::InstrFetch});
        // Destructor runs against a full disk here; surviving the
        // scope exit is the assertion.
    }
    SUCCEED();
}

TEST(TraceFileWriterFullDisk, ExplicitCloseThrows)
{
    if (std::FILE *probe = std::fopen("/dev/full", "wb"))
        std::fclose(probe);
    else
        GTEST_SKIP() << "/dev/full not available";
    TraceFileWriter writer("/dev/full");
    for (uint64_t i = 0; i < 100; ++i)
        writer.write({0x1000 + i * 4, 1, RefKind::InstrFetch});
    EXPECT_THROW(writer.close(), std::runtime_error);
    // After a failed close the handle is released: closing again is a
    // harmless no-op, and destruction must not retry.
    writer.close();
}

TEST_F(TraceFileTest, CloseIsIdempotent)
{
    TraceFileWriter writer(path_);
    writer.write({0x1000, 1, RefKind::InstrFetch});
    writer.close();
    writer.close();
    TraceFileReader reader(path_);
    EXPECT_EQ(reader.totalRecords(), 1u);
}

TEST_F(TraceFileTest, ReaderResetReplays)
{
    {
        TraceFileWriter writer(path_);
        for (const auto &rec : sampleRecords())
            writer.write(rec);
    }
    TraceFileReader reader(path_);
    const auto first = drain(reader);
    reader.reset();
    const auto second = drain(reader);
    EXPECT_EQ(first, second);
}

TEST_F(TraceFileTest, RejectsBadMagic)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace file at all....", f);
    std::fclose(f);
    EXPECT_THROW(TraceFileReader reader(path_), std::runtime_error);
}

TEST_F(TraceFileTest, MissingFileThrows)
{
    EXPECT_THROW(TraceFileReader reader(path_ + ".nope"),
                 std::runtime_error);
}

TEST(MonsterCapture, NonInvasivePassThrough)
{
    VectorTraceStream inner(sampleRecords());
    MonsterConfig config;
    config.bufferRecords = 2;
    config.unloadHandlerInstrs = 0;
    MonsterCapture capture(inner, config);
    EXPECT_EQ(drain(capture).size(), 6u);
    EXPECT_EQ(capture.stalls(), 3u);
    EXPECT_EQ(capture.injectedRecords(), 0u);
}

TEST(MonsterCapture, InvasiveInjectsHandlerRefs)
{
    VectorTraceStream inner(sampleRecords());
    MonsterConfig config;
    config.bufferRecords = 3;
    config.unloadHandlerInstrs = 2;
    MonsterCapture capture(inner, config);
    const auto out = drain(capture);
    // 6 payload records + 2 injections per stall.
    EXPECT_EQ(capture.stalls(), 2u);
    EXPECT_EQ(out.size(), 6u + capture.injectedRecords());
    EXPECT_EQ(capture.injectedRecords(), 4u);
    // Injected records are kernel instruction fetches at handlerBase.
    EXPECT_EQ(out[3].asid, KERNEL_ASID);
    EXPECT_EQ(out[3].vaddr, config.handlerBase);
    EXPECT_TRUE(out[3].isInstr());
}

TEST(MonsterCapture, ResetClearsState)
{
    VectorTraceStream inner(sampleRecords());
    MonsterConfig config;
    config.bufferRecords = 2;
    MonsterCapture capture(inner, config);
    drain(capture);
    capture.reset();
    EXPECT_EQ(capture.stalls(), 0u);
    EXPECT_EQ(drain(capture).size(), 6u);
}

} // namespace
} // namespace ibs
