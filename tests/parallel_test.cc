/**
 * @file
 * ThreadPool / parallelFor: worker reuse, exception semantics,
 * nesting, and scheduling-independence.
 *
 * The pool exists because the long-running simulation server issues
 * thousands of parallelFor loops per process; spawn-per-call would
 * churn a thread per cell per request. The reuse test pins that
 * property: repeated loops must execute on a stable set of worker
 * threads, not fresh ones each call.
 */

#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ibs {
namespace {

/** Distinct OS thread ids observed while running one loop. */
std::set<std::thread::id>
observedIds(ThreadPool &pool, size_t total, unsigned participants)
{
    std::mutex m;
    std::set<std::thread::id> ids;
    pool.parallelFor(
        total,
        [&](size_t) {
            // A short stall makes the caller yield items to the pool
            // workers instead of racing through the loop alone.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            std::lock_guard<std::mutex> lock(m);
            ids.insert(std::this_thread::get_id());
        },
        participants);
    return ids;
}

TEST(ThreadPool, ReusesTheSameWorkersAcrossCalls)
{
    ThreadPool pool(3);
    std::set<std::thread::id> all;
    for (int call = 0; call < 8; ++call) {
        const auto ids = observedIds(pool, 32, 4);
        all.insert(ids.begin(), ids.end());
    }
    // 8 spawn-per-call loops of 3 workers would show up to 24
    // distinct non-caller ids; a persistent pool shows at most
    // workerCount() plus the calling thread.
    EXPECT_LE(all.size(), pool.workerCount() + 1u);
    EXPECT_TRUE(all.count(std::this_thread::get_id()))
        << "the calling thread must participate in its own loop";
}

TEST(ThreadPool, SharedPoolIsStableAcrossParallelForCalls)
{
    std::set<std::thread::id> all;
    std::mutex m;
    for (int call = 0; call < 6; ++call) {
        parallelFor(24, 4, [&](size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            std::lock_guard<std::mutex> lock(m);
            all.insert(std::this_thread::get_id());
        });
    }
    EXPECT_LE(all.size(), ThreadPool::shared().workerCount() + 1u);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t TOTAL = 10'000;
    std::vector<std::atomic<int>> hits(TOTAL);
    pool.parallelFor(TOTAL, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < TOTAL; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, FirstExceptionIsRethrownAndDrainsPromptly)
{
    ThreadPool pool(3);
    constexpr size_t TOTAL = 2'000;
    std::atomic<size_t> executed{0};
    EXPECT_THROW(
        pool.parallelFor(TOTAL,
                         [&](size_t i) {
                             if (i == 0)
                                 throw std::runtime_error("item 0");
                             std::this_thread::sleep_for(
                                 std::chrono::microseconds(250));
                             executed.fetch_add(
                                 1, std::memory_order_relaxed);
                         }),
        std::runtime_error);
    // Draining stores total into the cursor, so the other
    // participants stop after at most the items they had already
    // claimed — nowhere near the full index space. Items take a
    // quarter of a millisecond, so the interval the drain cannot
    // cover (item 0's throw until the pool's catch: the unwinder's
    // one-time set-up, or the throwing thread losing its CPU) spans a
    // handful of items, while a pool that never drains runs every
    // one of them.
    EXPECT_LT(executed.load(), TOTAL / 2);
}

TEST(ThreadPool, PoolSurvivesAThrowingLoop)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(
                     8, [](size_t) { throw std::logic_error("boom"); }),
                 std::logic_error);
    std::atomic<size_t> ran{0};
    pool.parallelFor(64, [&](size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 64u);
}

TEST(ThreadPool, WrapperKeepsExceptionContract)
{
    EXPECT_THROW(parallelFor(16, 4,
                             [](size_t i) {
                                 if (i == 3)
                                     throw std::runtime_error("cell");
                             }),
                 std::runtime_error);
}

TEST(ThreadPool, NestedLoopsDoNotDeadlock)
{
    std::atomic<size_t> inner_total{0};
    parallelFor(4, 4, [&](size_t) {
        parallelFor(4, 4, [&](size_t) {
            inner_total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner_total.load(), 16u);
}

TEST(ThreadPool, ConcurrentLoopsFromManyThreadsAllComplete)
{
    // The server shape: several connection threads sharding work
    // onto one pool at once.
    constexpr int CALLERS = 6;
    constexpr size_t TOTAL = 500;
    std::vector<std::atomic<size_t>> counts(CALLERS);
    std::vector<std::thread> callers;
    for (int c = 0; c < CALLERS; ++c) {
        callers.emplace_back([&, c] {
            parallelFor(TOTAL, 4, [&, c](size_t) {
                counts[c].fetch_add(1, std::memory_order_relaxed);
            });
        });
    }
    for (auto &t : callers)
        t.join();
    for (int c = 0; c < CALLERS; ++c)
        EXPECT_EQ(counts[c].load(), TOTAL) << "caller " << c;
}

TEST(ThreadPool, ZeroWorkerPoolRunsOnCaller)
{
    ThreadPool pool(0);
    std::set<std::thread::id> ids;
    pool.parallelFor(16, [&](size_t) {
        ids.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

} // namespace
} // namespace ibs
