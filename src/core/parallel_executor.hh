/**
 * @file
 * A small worker pool for running independent simulation jobs
 * concurrently.
 *
 * Every experiment cell (one runSimulation() call) owns its Machine and
 * EventQueue outright, so cells are share-nothing and can execute on any
 * thread. The executor exploits that: run() dispatches a batch of jobs
 * across a fixed set of worker threads and blocks until all complete.
 * Results are slotted by submission index, so a parallel sweep produces
 * bit-identical output to the serial loop regardless of which thread
 * finishes first.
 *
 * Exceptions thrown by jobs are captured per job; after the batch
 * drains, the exception of the lowest-indexed failing job is rethrown —
 * the same exception the serial loop would have surfaced first.
 */

#ifndef FLEXSNOOP_CORE_PARALLEL_EXECUTOR_HH
#define FLEXSNOOP_CORE_PARALLEL_EXECUTOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace flexsnoop
{

class ParallelExecutor
{
  public:
    using Job = std::function<void()>;

    /**
     * @param workers worker-thread count; 0 or 1 means serial (jobs run
     *        inline on the calling thread, no threads are spawned)
     */
    explicit ParallelExecutor(std::size_t workers = defaultWorkers());
    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /** Hardware concurrency, with a fallback of 1 when unknown. */
    static std::size_t defaultWorkers();

    /** Worker threads backing this pool (0 when serial). */
    std::size_t workers() const { return _threads.size(); }

    /**
     * Execute every job in @p jobs and block until all finish. Jobs are
     * claimed dynamically, so long and short jobs balance across
     * workers. Rethrows the first (by submission index) job exception
     * after the whole batch has drained.
     */
    void run(const std::vector<Job> &jobs);

    /**
     * Like run(), but with per-job crash isolation: every job executes
     * regardless of other jobs' failures, and nothing is rethrown. The
     * returned vector holds one entry per job, null on success and the
     * captured exception otherwise — the sweep runner's building block
     * (one failing cell must not kill the batch).
     */
    std::vector<std::exception_ptr>
    runCollect(const std::vector<Job> &jobs);

    /**
     * Evaluate fn(0..count-1) across the pool and return the results in
     * index order. The result type must be default-constructible and
     * move-assignable.
     */
    template <typename Fn>
    auto
    map(std::size_t count, Fn &&fn)
        -> std::vector<decltype(fn(std::size_t{}))>
    {
        using R = decltype(fn(std::size_t{}));
        std::vector<R> results(count);
        std::vector<Job> jobs;
        jobs.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            jobs.push_back([&results, &fn, i]() { results[i] = fn(i); });
        run(jobs);
        return results;
    }

  private:
    void workerLoop();

    std::vector<std::thread> _threads;

    std::mutex _m;
    std::condition_variable _wake; ///< signals a new batch (or shutdown)
    std::condition_variable _done; ///< signals batch completion
    std::uint64_t _generation = 0; ///< batch sequence number
    std::size_t _running = 0;      ///< workers still in the current batch
    bool _stop = false;

    const std::vector<Job> *_jobs = nullptr;
    std::vector<std::exception_ptr> *_errors = nullptr;
    std::atomic<std::size_t> _next{0}; ///< next unclaimed job index
};

} // namespace flexsnoop

#endif // FLEXSNOOP_CORE_PARALLEL_EXECUTOR_HH
