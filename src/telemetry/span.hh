/**
 * @file
 * Scoped trace spans: named timing regions recording wall time, CPU
 * time and invocation counts, exportable as Chrome trace-event JSON.
 *
 * Usage (via the macro layer in telemetry/telemetry.hh):
 *
 *     void Pipeline::compile(...) {
 *         MITHRA_SPAN("core.pipeline.compile");
 *         ...
 *     }
 *
 * Each distinct span name owns one SpanSite aggregating call count and
 * total wall/CPU nanoseconds; sites live in the sorted SpanRegistry so
 * the JSON export (toJson(), the one export format) iterates
 * deterministically. Invocation *counts* are deterministic and are
 * included in run reports by default; *times* are inherently
 * nondeterministic and only appear when explicitly requested
 * (RunReport timing section, MITHRA_REPORT_TIMING=1).
 *
 * CPU time (the run report's `cpu_ns`) is the CPU clock of the thread
 * that opened the span, read at entry and exit. It does not include
 * work that pool workers do for the span's parallelFor regions, so a
 * span over a parallel region can report cpu_ns near wall_ns at any
 * thread count.
 *
 * Flame-chart export: when MITHRA_TRACE=<path> is set in the
 * environment (or setTracePath() is called), every span entry/exit is
 * buffered as a complete ("ph":"X") Chrome trace event and written to
 * <path> at process exit or flushTrace(). Open the file in
 * chrome://tracing or https://ui.perfetto.dev.
 *
 * This file is the tree's sanctioned timing implementation: the
 * no-raw-timing lint rule forbids std::chrono / clock() /
 * clock_gettime in src/ outside src/telemetry, so every measurement
 * flows through spans (or the clock helpers below).
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/json.hh"

namespace mithra::telemetry
{

/** Monotonic wall clock, nanoseconds since an arbitrary epoch. */
std::int64_t wallClockNs();

/** CPU clock of the calling thread, nanoseconds. */
std::int64_t threadCpuClockNs();

/** Aggregated timing of one span name. */
class SpanSite
{
  public:
    explicit SpanSite(std::string name);

    SpanSite(const SpanSite &) = delete;
    SpanSite &operator=(const SpanSite &) = delete;

    void record(std::int64_t wallNs, std::int64_t cpuNs)
    {
        callCount.fetch_add(1, std::memory_order_relaxed);
        totalWallNs.fetch_add(wallNs, std::memory_order_relaxed);
        totalCpuNs.fetch_add(cpuNs, std::memory_order_relaxed);
    }

    const std::string &name() const { return siteName; }
    std::int64_t calls() const
    {
        return callCount.load(std::memory_order_relaxed);
    }
    std::int64_t wallNs() const
    {
        return totalWallNs.load(std::memory_order_relaxed);
    }
    std::int64_t cpuNs() const
    {
        return totalCpuNs.load(std::memory_order_relaxed);
    }

    void reset();

  private:
    std::string siteName;
    std::atomic<std::int64_t> callCount{0};
    std::atomic<std::int64_t> totalWallNs{0};
    std::atomic<std::int64_t> totalCpuNs{0};
};

/** Sorted name -> SpanSite registry backing the MITHRA_SPAN macro. */
class SpanRegistry
{
  public:
    SpanRegistry() = default;
    SpanRegistry(const SpanRegistry &) = delete;
    SpanRegistry &operator=(const SpanRegistry &) = delete;

    static SpanRegistry &global();

    /** Get-or-create the site for `name`. */
    SpanSite &site(const std::string &name);

    /**
     * Span aggregates as a JSON object in sorted-name order. With
     * `includeTimes` false (the default for run reports) only the
     * deterministic call counts are emitted.
     */
    Json toJson(bool includeTimes) const;

    /** Zero every site's aggregates (registrations stay). */
    void resetValues();

  private:
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<SpanSite>> sites;
};

/** RAII region: records into its site (and the trace buffer) on exit. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(SpanSite &spanSite)
        : site(spanSite),
          startWallNs(wallClockNs()),
          startCpuNs(threadCpuClockNs())
    {
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan();

  private:
    SpanSite &site;
    std::int64_t startWallNs;
    std::int64_t startCpuNs;
};

/**
 * Enable Chrome trace-event collection, writing to `path` at process
 * exit (or at an explicit flushTrace()). An empty path disables
 * collection. MITHRA_TRACE in the environment does the same at
 * startup.
 */
void setTracePath(const std::string &path);

/** True when span entry/exit events are being buffered. */
bool tracingEnabled();

/** Write buffered trace events now; returns the path (empty if off). */
std::string flushTrace();

} // namespace mithra::telemetry
