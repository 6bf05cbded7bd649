/**
 * @file
 * Shared thread-pool primitive for embarrassingly parallel index
 * spaces.
 *
 * The sweep executor fans independent (config, workload) cells out
 * over worker threads, and the simulation server (src/serve) shards
 * many concurrent requests over the same workers.
 * ThreadPool owns a fixed set of persistent std::thread workers;
 * parallelFor schedules [0, total) onto them through a shared atomic
 * cursor, because item costs vary wildly (a 256-KB L2 cell or a
 * server-heavy workload is many times the work of a baseline cell)
 * and static striping would leave workers idle.
 *
 * The calling thread always participates in its own loop, so a
 * parallelFor issued from inside a pool worker (nested parallelism,
 * or a server connection handler that is itself pool-driven) makes
 * progress even when every pool worker is busy — the pool can never
 * deadlock on its own work.
 *
 * Determinism contract: `fn(i)` must write only state owned by item
 * `i`. Under that contract the results are bit-for-bit identical to
 * running the loop serially, regardless of worker count or
 * scheduling. The first exception thrown by any item is rethrown on
 * the calling thread after the loop drains; remaining items may be
 * skipped.
 */

#ifndef IBS_SIM_PARALLEL_H
#define IBS_SIM_PARALLEL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ibs {

/**
 * Fixed set of persistent worker threads executing parallel-for
 * loops. Threads are created once, in the constructor, and reused for
 * every loop — no per-call spawn/join churn. Multiple threads may run
 * loops on one pool concurrently (the simulation server does); each
 * loop completes independently.
 */
class ThreadPool
{
  public:
    /** @param workers worker threads to create (>= 1 recommended;
     *         0 makes every loop run entirely on its caller) */
    explicit ThreadPool(unsigned workers);

    /** Joins all workers; every loop must have completed (parallelFor
     *  only returns once its own items are done, so this holds
     *  whenever no parallelFor call is still in flight). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned workerCount() const { return workerCount_; }

    /**
     * Run `fn(i)` for every i in [0, total). The calling thread works
     * too; at most `max_participants - 1` pool workers join it
     * (0 means "all workers"). Returns when every claimed item has
     * finished; rethrows the first exception thrown by any item.
     */
    void parallelFor(size_t total, const std::function<void(size_t)> &fn,
                     unsigned max_participants = 0);

    /**
     * The process-wide pool every parallelFor call shares, created on
     * first use with IBS_THREADS (else hardware-concurrency) workers.
     */
    static ThreadPool &shared();

  private:
    /** One in-flight parallel-for loop. */
    struct Job
    {
        size_t total = 0;
        std::atomic<size_t> next{0}; ///< Claim cursor.
        const std::function<void(size_t)> *fn = nullptr;

        std::mutex mutex;
        std::condition_variable cv;
        int active = 0; ///< Participants inside run() (incl. caller).
        int slots = 0;  ///< Pool workers still allowed to join.
        std::exception_ptr error;
    };

    void workerLoop();
    static void run(Job &job);

    unsigned workerCount_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Job>> jobs_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Run `fn(i)` for every i in [0, total) on the shared pool.
 *
 * @param total index-space size
 * @param threads participant cap (calling thread included); clamped
 *        to total, 0 or 1 runs the loop on the calling thread with no
 *        pool involvement
 * @param fn per-item work; must only touch item-owned state
 */
void parallelFor(size_t total, unsigned threads,
                 const std::function<void(size_t)> &fn);

} // namespace ibs

#endif // IBS_SIM_PARALLEL_H
