#include "common/parallel.hh"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "common/env_registry.hh"
#include "telemetry/telemetry.hh"

namespace mithra
{

namespace
{

thread_local bool insideRegion = false;

std::size_t
defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return env::countIn("MITHRA_THREADS", 1, 1024, hw ? hw : 1);
}

/**
 * The pool itself. One job is active at a time (top-level regions from
 * different threads serialize on dispatchMutex); workers pull chunks
 * from an atomic cursor, so static chunk *identity* is fixed while
 * chunk *placement* is dynamic.
 */
class ThreadPool
{
  public:
    static ThreadPool &global();

    ~ThreadPool() { stopWorkers(); }

    std::size_t width()
    {
        std::lock_guard<std::mutex> lock(configMutex);
        return configuredWidth;
    }

    void setWidth(std::size_t threads)
    {
        MITHRA_EXPECTS(threads >= 1, "thread count must be positive");
        std::lock_guard<std::mutex> lock(configMutex);
        if (threads == configuredWidth)
            return;
        stopWorkers();
        configuredWidth = threads;
    }

    void run(std::size_t chunkCount,
             void (*invoke)(void *, std::size_t), void *context)
    {
        // One region at a time; a second top-level caller waits here.
        std::lock_guard<std::mutex> dispatch(dispatchMutex);
        {
            std::lock_guard<std::mutex> lock(configMutex);
            startWorkersLocked();
        }

        job.invoke = invoke;
        job.context = context;
        job.chunkCount = chunkCount;
        job.errors.assign(chunkCount, nullptr);
        job.nextChunk.store(0, std::memory_order_relaxed);
        job.doneChunks.store(0, std::memory_order_relaxed);

        {
            // Publishing under jobMutex sequences the field writes
            // above before any worker's first look at the job.
            std::lock_guard<std::mutex> lock(jobMutex);
            ++jobGeneration;
            jobActive = true;
        }
        jobReady.notify_all();

        // The caller participates, then waits for stragglers.
        executeChunks();
        waitForCompletion();

        MITHRA_ENSURES(job.doneChunks.load(std::memory_order_acquire)
                           == job.chunkCount,
                       "pool retired ", job.doneChunks.load(),
                       " of ", job.chunkCount, " chunks");
        for (auto &error : job.errors) {
            if (error)
                std::rethrow_exception(error);
        }
    }

  private:
    struct Job
    {
        void (*invoke)(void *, std::size_t) = nullptr;
        void *context = nullptr;
        std::size_t chunkCount = 0;
        std::atomic<std::size_t> nextChunk{0};
        std::atomic<std::size_t> doneChunks{0};
        std::vector<std::exception_ptr> errors;
    };

    void executeChunks()
    {
        const bool wasInside = insideRegion;
        insideRegion = true;
        std::size_t executed = 0;
        for (;;) {
            const std::size_t chunk =
                job.nextChunk.fetch_add(1, std::memory_order_relaxed);
            if (chunk >= job.chunkCount)
                break;
            try {
                job.invoke(job.context, chunk);
            } catch (...) {
                job.errors[chunk] = std::current_exception();
            }
            ++executed;
            if (job.doneChunks.fetch_add(1, std::memory_order_release)
                    + 1
                == job.chunkCount) {
                std::lock_guard<std::mutex> lock(jobMutex);
                jobDone.notify_all();
            }
        }
        insideRegion = wasInside;

        // Placement accounting: how many chunks this thread pulled off
        // the cursor. Placement is dynamic (only chunk *identity* is
        // static), so these are volatile stats — excluded from
        // deterministic dumps and run reports.
        if (executed) {
            // The thread-ordinal key is registered volatile (the
            // `true` argument), so it never reaches deterministic
            // dumps. mithra-analyze: allow(taint-flow)
            telemetry::StatsRegistry::global().counter(
                    "parallel.placement.thread"
                        + std::to_string(telemetry::threadOrdinal()),
                    true)
                .add(static_cast<std::int64_t>(executed));
        }
    }

    void waitForCompletion()
    {
        // Spin briefly (regions are often back to back and short),
        // then block until the last chunk retires and every worker has
        // left the job (so its storage can be reused).
        for (int spin = 0; spin < 8192; ++spin) {
            if (job.doneChunks.load(std::memory_order_acquire)
                == job.chunkCount)
                break;
            std::this_thread::yield();
        }
        std::unique_lock<std::mutex> lock(jobMutex);
        jobDone.wait(lock, [&] {
            return job.doneChunks.load(std::memory_order_acquire)
                == job.chunkCount
                && activeWorkers == 0;
        });
        // Retire the job before releasing dispatchMutex so a worker
        // that wakes late can never touch its storage while the next
        // region is being set up.
        jobActive = false;
    }

    void workerLoop()
    {
        std::uint64_t seenGeneration = 0;
        for (;;) {
            std::unique_lock<std::mutex> lock(jobMutex);
            jobReady.wait(lock, [&] {
                return stopping
                    || (jobActive && jobGeneration != seenGeneration);
            });
            if (stopping)
                return;
            seenGeneration = jobGeneration;
            ++activeWorkers;
            lock.unlock();

            executeChunks();

            lock.lock();
            --activeWorkers;
            jobDone.notify_all();
        }
    }

    void startWorkersLocked()
    {
        if (!workers.empty() || configuredWidth <= 1)
            return;
        stopping = false;
        workers.reserve(configuredWidth - 1);
        for (std::size_t t = 0; t + 1 < configuredWidth; ++t)
            workers.emplace_back([this] { workerLoop(); });
    }

    void stopWorkers()
    {
        {
            std::lock_guard<std::mutex> lock(jobMutex);
            stopping = true;
        }
        jobReady.notify_all();
        for (auto &worker : workers)
            worker.join();
        workers.clear();
    }

    std::mutex configMutex;
    std::size_t configuredWidth = defaultThreadCount();
    std::vector<std::thread> workers;

    std::mutex dispatchMutex;
    std::mutex jobMutex;
    std::condition_variable jobReady;
    std::condition_variable jobDone;
    std::uint64_t jobGeneration = 0;
    std::size_t activeWorkers = 0;
    bool jobActive = false;
    bool stopping = false;
    Job job;
};

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

} // namespace

std::size_t
parallelThreadCount()
{
    return ThreadPool::global().width();
}

void
setParallelThreadCount(std::size_t threads)
{
    ThreadPool::global().setWidth(threads);
}

bool
inParallelRegion()
{
    return insideRegion;
}

namespace detail
{

void
runChunks(std::size_t chunkCount,
          void (*invoke)(void *context, std::size_t chunkIndex),
          void *context, bool forceInline)
{
    if (chunkCount == 0)
        return;
    // Region/chunk accounting. Chunk layout depends only on the range
    // and the grain — never the pool width — so these counters are
    // identical at any MITHRA_THREADS and safe for the deterministic
    // dump (unlike the per-thread placement stats below).
    MITHRA_COUNT("parallel.regions", 1);
    MITHRA_COUNT("parallel.chunks", chunkCount);
    // Inline when there is nothing to overlap (one chunk, one thread)
    // or when already inside a region (nested parallelism). Inline
    // execution runs chunks in index order — by the chunking contract
    // this computes exactly what the pooled execution computes.
    if (forceInline || chunkCount == 1 || insideRegion
        || ThreadPool::global().width() == 1) {
        for (std::size_t chunk = 0; chunk < chunkCount; ++chunk)
            invoke(context, chunk);
        return;
    }
    ThreadPool::global().run(chunkCount, invoke, context);
}

} // namespace detail

} // namespace mithra
