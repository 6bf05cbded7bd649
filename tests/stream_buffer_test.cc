/**
 * @file
 * Unit tests for the stream buffer container.
 */

#include <gtest/gtest.h>

#include "cache/stream_buffer.h"

namespace ibs {
namespace {

TEST(StreamBuffer, LookupFindsEntry)
{
    StreamBuffer sb(4);
    sb.insert(0x100, 10);
    StreamEntry e;
    EXPECT_TRUE(sb.lookup(0x100, e));
    EXPECT_EQ(e.arrivalCycle, 10u);
    EXPECT_FALSE(sb.lookup(0x200, e));
}

TEST(StreamBuffer, CapacityEvictsOldest)
{
    StreamBuffer sb(2);
    sb.insert(0x100, 1);
    sb.insert(0x200, 2);
    sb.insert(0x300, 3);
    StreamEntry e;
    EXPECT_FALSE(sb.lookup(0x100, e));
    EXPECT_TRUE(sb.lookup(0x200, e));
    EXPECT_TRUE(sb.lookup(0x300, e));
    EXPECT_EQ(sb.size(), 2u);
    EXPECT_TRUE(sb.full());
}

TEST(StreamBuffer, ZeroCapacityIgnoresInserts)
{
    StreamBuffer sb(0);
    sb.insert(0x100, 1);
    EXPECT_TRUE(sb.empty());
    StreamEntry e;
    EXPECT_FALSE(sb.lookup(0x100, e));
}

TEST(StreamBuffer, RemoveDeletesOnlyTarget)
{
    StreamBuffer sb(4);
    sb.insert(0x100, 1);
    sb.insert(0x200, 2);
    sb.remove(0x100);
    StreamEntry e;
    EXPECT_FALSE(sb.lookup(0x100, e));
    EXPECT_TRUE(sb.lookup(0x200, e));
    sb.remove(0x999); // Absent: no-op.
    EXPECT_EQ(sb.size(), 1u);
}

TEST(StreamBuffer, CancelInFlightKeepsArrived)
{
    StreamBuffer sb(4);
    sb.insert(0x100, 5);  // Arrived by cycle 10.
    sb.insert(0x200, 15); // Still in flight at cycle 10.
    sb.insert(0x300, 10); // Arrives exactly at 10: kept.
    sb.cancelInFlight(10);
    StreamEntry e;
    EXPECT_TRUE(sb.lookup(0x100, e));
    EXPECT_FALSE(sb.lookup(0x200, e));
    EXPECT_TRUE(sb.lookup(0x300, e));
}

TEST(StreamBuffer, ReinsertRefreshesArrivalInPlace)
{
    // Re-prefetching a resident line must refresh its arrival cycle,
    // not add a duplicate entry that survives the remove() after
    // first use.
    StreamBuffer sb(4);
    sb.insert(0x100, 5);
    sb.insert(0x100, 9);
    EXPECT_EQ(sb.size(), 1u);
    StreamEntry e;
    ASSERT_TRUE(sb.lookup(0x100, e));
    EXPECT_EQ(e.arrivalCycle, 9u);
    sb.remove(0x100);
    EXPECT_FALSE(sb.lookup(0x100, e));
    EXPECT_TRUE(sb.empty());
}

TEST(StreamBuffer, ReinsertDoesNotConsumeCapacity)
{
    // A full buffer must not evict its oldest entry to make room for
    // a line it already holds.
    StreamBuffer sb(2);
    sb.insert(0x100, 1);
    sb.insert(0x200, 2);
    sb.insert(0x100, 3); // Refresh: 0x100 keeps its slot and order.
    EXPECT_EQ(sb.size(), 2u);
    StreamEntry e;
    ASSERT_TRUE(sb.lookup(0x100, e));
    EXPECT_EQ(e.arrivalCycle, 3u);
    EXPECT_TRUE(sb.lookup(0x200, e));
    // FIFO order is unchanged by the refresh: the next insert evicts
    // 0x100 (still the oldest), not 0x200.
    sb.insert(0x300, 4);
    EXPECT_FALSE(sb.lookup(0x100, e));
    EXPECT_TRUE(sb.lookup(0x200, e));
    EXPECT_TRUE(sb.lookup(0x300, e));
}

} // namespace
} // namespace ibs
