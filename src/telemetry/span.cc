#include "telemetry/span.hh"

#include <ctime>
#include <fstream>

#include "common/contracts.hh"
#include "common/env_registry.hh"
#include "telemetry/stats.hh"

namespace mithra::telemetry
{

namespace
{

std::int64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000
        + static_cast<std::int64_t>(ts.tv_nsec);
}

/** One buffered Chrome trace event (a completed span). */
struct TraceEvent
{
    const std::string *name = nullptr; // owned by the SpanSite
    std::size_t threadId = 0;
    std::int64_t startNs = 0;
    std::int64_t durationNs = 0;
};

/** Trace collection state; one per process. */
struct TraceBuffer
{
    std::mutex mutex;
    std::string path;
    bool enabled = false;
    bool exitHookInstalled = false;
    std::vector<TraceEvent> events;

    static TraceBuffer &global()
    {
        // Immortal, like the registries: spans ending during static
        // teardown still append events here.
        static TraceBuffer *buffer = new TraceBuffer;
        return *buffer;
    }
};

void
flushTraceAtExit()
{
    flushTrace();
}

/** Read MITHRA_TRACE once, before main's first span. */
[[maybe_unused]] const bool traceEnvApplied = [] {
    if (const char *path = env::text("MITHRA_TRACE"))
        setTracePath(path);
    return true;
}();

} // namespace

std::int64_t
wallClockNs()
{
    return clockNs(CLOCK_MONOTONIC);
}

std::int64_t
threadCpuClockNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

SpanSite::SpanSite(std::string name) : siteName(std::move(name)) {}

void
SpanSite::reset()
{
    callCount.store(0, std::memory_order_relaxed);
    totalWallNs.store(0, std::memory_order_relaxed);
    totalCpuNs.store(0, std::memory_order_relaxed);
}

SpanRegistry &
SpanRegistry::global()
{
    // Intentionally immortal (never destructed): the atexit trace
    // flush and function-local static SpanSite references in other
    // translation units must stay valid through static destruction.
    static SpanRegistry *registry = new SpanRegistry;
    return *registry;
}

SpanSite &
SpanRegistry::site(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = sites.find(name);
    if (it != sites.end())
        return *it->second;
    auto created = std::make_unique<SpanSite>(name);
    SpanSite &ref = *created;
    sites.emplace(name, std::move(created));
    return ref;
}

Json
SpanRegistry::toJson(bool includeTimes) const
{
    std::lock_guard<std::mutex> lock(mutex);
    Json::Object spans;
    for (const auto &[name, site] : sites) {
        Json::Object entry;
        entry.emplace("calls", Json(site->calls()));
        if (includeTimes) {
            entry.emplace("wall_ns", Json(site->wallNs()));
            entry.emplace("cpu_ns", Json(site->cpuNs()));
        }
        spans.emplace(name, Json(std::move(entry)));
    }
    return Json(std::move(spans));
}

void
SpanRegistry::resetValues()
{
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &[name, site] : sites)
        site->reset();
}

ScopedSpan::~ScopedSpan()
{
    const std::int64_t endWallNs = wallClockNs();
    const std::int64_t wallNs = endWallNs - startWallNs;
    const std::int64_t cpuNs = threadCpuClockNs() - startCpuNs;
    site.record(wallNs, cpuNs);

    TraceBuffer &buffer = TraceBuffer::global();
    if (!buffer.enabled)
        return;
    std::lock_guard<std::mutex> lock(buffer.mutex);
    if (!buffer.enabled)
        return;
    buffer.events.push_back(
        {&site.name(), threadOrdinal(), startWallNs, wallNs});
}

void
setTracePath(const std::string &path)
{
    TraceBuffer &buffer = TraceBuffer::global();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.path = path;
    buffer.enabled = !path.empty();
    if (buffer.enabled && !buffer.exitHookInstalled) {
        std::atexit(flushTraceAtExit);
        buffer.exitHookInstalled = true;
    }
}

bool
tracingEnabled()
{
    TraceBuffer &buffer = TraceBuffer::global();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    return buffer.enabled;
}

std::string
flushTrace()
{
    TraceBuffer &buffer = TraceBuffer::global();
    std::vector<TraceEvent> events;
    std::string path;
    {
        std::lock_guard<std::mutex> lock(buffer.mutex);
        if (!buffer.enabled)
            return "";
        path = buffer.path;
        // Copy rather than drain: a later flush (e.g. the atexit hook
        // after an explicit flush) rewrites the file with *all* events.
        events = buffer.events;
    }

    Json::Array traceEvents;
    for (const TraceEvent &event : events) {
        Json::Object entry;
        entry.emplace("name", Json(*event.name));
        entry.emplace("cat", Json("mithra"));
        entry.emplace("ph", Json("X"));
        entry.emplace("ts",
                      Json(static_cast<double>(event.startNs) / 1e3));
        entry.emplace("dur",
                      Json(static_cast<double>(event.durationNs) / 1e3));
        entry.emplace("pid", Json(std::int64_t{1}));
        entry.emplace("tid",
                      Json(static_cast<std::int64_t>(event.threadId)));
        traceEvents.emplace_back(std::move(entry));
    }
    Json::Object document;
    document.emplace("displayTimeUnit", Json("ms"));
    document.emplace("traceEvents", Json(std::move(traceEvents)));

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        warn("cannot write trace file ", path);
        return "";
    }
    out << Json(std::move(document)).dump(1);
    return path;
}

} // namespace mithra::telemetry
