/**
 * @file
 * ThreadPool / parallelFor implementation.
 */

#include "sim/parallel.h"

#include <algorithm>
#include <atomic>

#include "sim/sweep.h"

namespace ibs {

ThreadPool::ThreadPool(unsigned workers) : workerCount_(workers)
{
    workers_.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::run(Job &job)
{
    {
        std::lock_guard<std::mutex> lock(job.mutex);
        ++job.active;
    }
    try {
        for (;;) {
            const size_t i =
                job.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= job.total)
                break;
            (*job.fn)(i);
        }
    } catch (...) {
        std::lock_guard<std::mutex> lock(job.mutex);
        if (!job.error)
            job.error = std::current_exception();
        // Drain the cursor so the other participants stop promptly.
        job.next.store(job.total, std::memory_order_relaxed);
    }
    bool last;
    {
        std::lock_guard<std::mutex> lock(job.mutex);
        last = --job.active == 0 &&
            job.next.load(std::memory_order_relaxed) >= job.total;
    }
    if (last)
        job.cv.notify_all();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            for (;;) {
                // Retire exhausted loops, then pick the oldest one
                // that still has both work and a free worker slot.
                while (!jobs_.empty() &&
                       jobs_.front()->next.load(
                           std::memory_order_relaxed) >=
                           jobs_.front()->total)
                    jobs_.pop_front();
                for (auto &candidate : jobs_) {
                    if (candidate->next.load(
                            std::memory_order_relaxed) <
                            candidate->total &&
                        candidate->slots > 0) {
                        --candidate->slots;
                        job = candidate;
                        break;
                    }
                }
                if (job || stop_)
                    break;
                cv_.wait(lock);
            }
        }
        if (!job)
            return; // stop_ with nothing runnable.
        run(*job);
    }
}

void
ThreadPool::parallelFor(size_t total,
                        const std::function<void(size_t)> &fn,
                        unsigned max_participants)
{
    if (total == 0)
        return;
    auto job = std::make_shared<Job>();
    job->total = total;
    job->fn = &fn;
    size_t helpers = max_participants == 0
        ? workerCount_
        : std::min<size_t>(max_participants - 1, workerCount_);
    helpers = std::min(helpers, total - 1); // Caller takes one item.
    job->slots = static_cast<int>(helpers);

    if (helpers > 0) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            jobs_.push_back(job);
        }
        cv_.notify_all();
    }

    run(*job); // The caller always works its own loop.

    std::unique_lock<std::mutex> lock(job->mutex);
    job->cv.wait(lock, [&] {
        return job->active == 0 &&
            job->next.load(std::memory_order_relaxed) >= job->total;
    });
    // Workers holding a shared_ptr copy keep the Job alive until they
    // release it; active == 0 guarantees none is still inside run().
    if (job->error)
        std::rethrow_exception(job->error);
}

ThreadPool &
ThreadPool::shared()
{
    // IBS_THREADS caps parallelFor participants (the sweep executor
    // reads it per call); sizing the pool the same way means an
    // explicit larger `threads` argument still gets every worker the
    // environment allows.
    static ThreadPool pool = [] {
        const unsigned hw = std::thread::hardware_concurrency();
        const unsigned n = sweepThreads();
        const unsigned workers = n > 1 ? n : (hw > 1 ? hw : 1);
        return ThreadPool(workers - (workers > 1 ? 1 : 0));
    }();
    return pool;
}

void
parallelFor(size_t total, unsigned threads,
            const std::function<void(size_t)> &fn)
{
    if (total == 0)
        return;
    if (threads > total)
        threads = static_cast<unsigned>(total);

    if (threads <= 1) {
        for (size_t i = 0; i < total; ++i)
            fn(i);
        return;
    }

    ThreadPool::shared().parallelFor(total, fn, threads);
}

} // namespace ibs
