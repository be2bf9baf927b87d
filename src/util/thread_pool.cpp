#include "util/thread_pool.hpp"

#include "util/error.hpp"

#include <cstdint>
#include <stdexcept>

namespace tgl::util {

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0) {
            num_threads = 1;
        }
    }
    workers_.reserve(num_threads);
    for (unsigned rank = 0; rank < num_threads; ++rank) {
        workers_.emplace_back([this, rank] { worker_loop(rank); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void
ThreadPool::run(unsigned parties, const std::function<void(unsigned)>& fn)
{
    if (parties == 0) {
        return;
    }
    if (parties > size()) {
        parties = size();
    }
    if (parties == 1) {
        // Degenerate team: run inline, no dispatch overhead.
        fn(0);
        return;
    }

    std::unique_lock<std::mutex> lock(mutex_);
    TGL_ASSERT(job_ == nullptr && "ThreadPool::run is not reentrant");
    job_ = &fn;
    job_parties_ = parties;
    pending_ = parties;
    first_error_ = nullptr;
    ++generation_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
    if (first_error_) {
        std::exception_ptr error = first_error_;
        first_error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void
ThreadPool::worker_loop(unsigned rank)
{
    // A thread's first exception spends 45-140 us in one-time unwinder
    // setup before it reaches a parallel loop's handler, and the loop's
    // peers keep claiming chunks until that handler sets `cancelled`.
    // Paying the setup here, once per worker, cuts the throw-to-cancel
    // latency of a failing loop body to a few microseconds.
    try {
        throw std::runtime_error("thread pool unwinder warm-up");
    } catch (const std::runtime_error&) {
    }
    std::uint64_t seen_generation = 0;
    for (;;) {
        const std::function<void(unsigned)>* job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [&] {
                return shutdown_ ||
                       (job_ != nullptr && generation_ != seen_generation &&
                        rank < job_parties_);
            });
            if (shutdown_) {
                return;
            }
            seen_generation = generation_;
            job = job_;
        }
        std::exception_ptr error;
        try {
            (*job)(rank);
        } catch (...) {
            error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (error && !first_error_) {
                first_error_ = error;
            }
            if (--pending_ == 0) {
                done_cv_.notify_all();
            }
        }
    }
}

ThreadPool&
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

} // namespace tgl::util
