#include "telemetry/stats.hh"

#include <limits>

#include "common/contracts.hh"

namespace mithra::telemetry
{

namespace
{

std::size_t
nextThreadOrdinal()
{
    static std::atomic<std::size_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed);
}

void
atomicMin(std::atomic<double> &slot, double value)
{
    double current = slot.load(std::memory_order_relaxed);
    while (value < current
           && !slot.compare_exchange_weak(current, value,
                                          std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double> &slot, double value)
{
    double current = slot.load(std::memory_order_relaxed);
    while (value > current
           && !slot.compare_exchange_weak(current, value,
                                          std::memory_order_relaxed)) {
    }
}

} // namespace

std::size_t
threadOrdinal()
{
    thread_local const std::size_t ordinal = nextThreadOrdinal();
    return ordinal;
}

Counter::Counter(std::string name, bool isVolatile)
    : statName(std::move(name)), volatileStat(isVolatile)
{
}

std::int64_t
Counter::value() const
{
    std::int64_t total = 0;
    for (const Slot &slot : slots)
        total += slot.value.load(std::memory_order_relaxed);
    return total;
}

void
Counter::reset()
{
    for (Slot &slot : slots)
        slot.value.store(0, std::memory_order_relaxed);
}

Gauge::Gauge(std::string name) : statName(std::move(name))
{
}

Histogram::Histogram(std::string name, double loIn, double hiIn,
                     std::size_t bucketCount)
    : statName(std::move(name)),
      lo(loIn),
      hi(hiIn),
      buckets(bucketCount),
      minValue(std::numeric_limits<double>::infinity()),
      maxValue(-std::numeric_limits<double>::infinity())
{
    MITHRA_EXPECTS(bucketCount > 0,
                   "histogram needs at least one bucket: ", statName);
    MITHRA_EXPECTS(hi > lo, "histogram range is empty: [", lo, ", ", hi,
                   ") for ", statName);
}

double
Histogram::bucketWidth() const
{
    return (hi - lo) / static_cast<double>(buckets.size());
}

void
Histogram::record(double value)
{
    sampleCount.fetch_add(1, std::memory_order_relaxed);
    atomicMin(minValue, value);
    atomicMax(maxValue, value);
    if (value < lo) {
        underflowCount.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (value >= hi) {
        overflowCount.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const auto bucket = static_cast<std::size_t>(
        (value - lo) / bucketWidth());
    const std::size_t clamped =
        bucket < buckets.size() ? bucket : buckets.size() - 1;
    buckets[clamped].fetch_add(1, std::memory_order_relaxed);
}

std::int64_t
Histogram::samples() const
{
    return sampleCount.load(std::memory_order_relaxed);
}

std::int64_t
Histogram::bucketCountAt(std::size_t bucket) const
{
    MITHRA_EXPECTS(bucket < buckets.size(), "bucket index ", bucket,
                   " out of range for ", statName);
    return buckets[bucket].load(std::memory_order_relaxed);
}

std::int64_t
Histogram::underflows() const
{
    return underflowCount.load(std::memory_order_relaxed);
}

std::int64_t
Histogram::overflows() const
{
    return overflowCount.load(std::memory_order_relaxed);
}

double
Histogram::minSample() const
{
    return samples() ? minValue.load(std::memory_order_relaxed) : 0.0;
}

double
Histogram::maxSample() const
{
    return samples() ? maxValue.load(std::memory_order_relaxed) : 0.0;
}

void
Histogram::reset()
{
    for (auto &bucket : buckets)
        bucket.store(0, std::memory_order_relaxed);
    underflowCount.store(0, std::memory_order_relaxed);
    overflowCount.store(0, std::memory_order_relaxed);
    sampleCount.store(0, std::memory_order_relaxed);
    minValue.store(std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
    maxValue.store(-std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
}

StatsRegistry &
StatsRegistry::global()
{
    // Intentionally immortal (never destructed): function-local static
    // stat references cached by the MITHRA_* macros in other
    // translation units may be hit from destructors during static
    // teardown.
    static StatsRegistry *registry = new StatsRegistry;
    return *registry;
}

namespace
{

/** The name is free across every stat kind of the registry. */
template <typename A, typename B, typename C>
bool
nameFree(const std::string &name, const A &a, const B &b, const C &c)
{
    return !a.count(name) && !b.count(name) && !c.count(name);
}

} // namespace

Counter &
StatsRegistry::addCounter(const std::string &name, bool isVolatile)
{
    std::lock_guard<std::mutex> lock(mutex);
    MITHRA_EXPECTS(nameFree(name, counters, gauges, histograms),
                   "duplicate stat registration: ", name);
    auto counter = std::make_unique<Counter>(name, isVolatile);
    Counter &ref = *counter;
    counters.emplace(name, std::move(counter));
    return ref;
}

Gauge &
StatsRegistry::addGauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    MITHRA_EXPECTS(nameFree(name, counters, gauges, histograms),
                   "duplicate stat registration: ", name);
    auto gauge = std::make_unique<Gauge>(name);
    Gauge &ref = *gauge;
    gauges.emplace(name, std::move(gauge));
    return ref;
}

Histogram &
StatsRegistry::addHistogram(const std::string &name, double lo,
                            double hi, std::size_t bucketCount)
{
    std::lock_guard<std::mutex> lock(mutex);
    MITHRA_EXPECTS(nameFree(name, counters, gauges, histograms),
                   "duplicate stat registration: ", name);
    auto histogram = std::make_unique<Histogram>(name, lo, hi,
                                                 bucketCount);
    Histogram &ref = *histogram;
    histograms.emplace(name, std::move(histogram));
    return ref;
}

Counter &
StatsRegistry::counter(const std::string &name, bool isVolatile)
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = counters.find(name);
    if (it != counters.end())
        return *it->second;
    MITHRA_EXPECTS(nameFree(name, counters, gauges, histograms),
                   "stat `", name, "' exists with a different kind");
    auto created = std::make_unique<Counter>(name, isVolatile);
    Counter &ref = *created;
    counters.emplace(name, std::move(created));
    return ref;
}

Gauge &
StatsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = gauges.find(name);
    if (it != gauges.end())
        return *it->second;
    MITHRA_EXPECTS(nameFree(name, counters, gauges, histograms),
                   "stat `", name, "' exists with a different kind");
    auto created = std::make_unique<Gauge>(name);
    Gauge &ref = *created;
    gauges.emplace(name, std::move(created));
    return ref;
}

Histogram &
StatsRegistry::histogram(const std::string &name, double lo, double hi,
                         std::size_t bucketCount)
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = histograms.find(name);
    if (it != histograms.end()) {
        Histogram &existing = *it->second;
        MITHRA_EXPECTS(existing.lowerBound() == lo
                           && existing.upperBound() == hi
                           && existing.numBuckets() == bucketCount,
                       "histogram `", name,
                       "' re-requested with different bucketing");
        return existing;
    }
    MITHRA_EXPECTS(nameFree(name, counters, gauges, histograms),
                   "stat `", name, "' exists with a different kind");
    auto created = std::make_unique<Histogram>(name, lo, hi,
                                               bucketCount);
    Histogram &ref = *created;
    histograms.emplace(name, std::move(created));
    return ref;
}

const Counter *
StatsRegistry::findCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = counters.find(name);
    return it == counters.end() ? nullptr : it->second.get();
}

const Gauge *
StatsRegistry::findGauge(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = gauges.find(name);
    return it == gauges.end() ? nullptr : it->second.get();
}

const Histogram *
StatsRegistry::findHistogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = histograms.find(name);
    return it == histograms.end() ? nullptr : it->second.get();
}

Json
StatsRegistry::toJson(bool includeVolatile) const
{
    std::lock_guard<std::mutex> lock(mutex);
    Json::Object countersJson;
    for (const auto &[name, counter] : counters) {
        if (counter->isVolatile() && !includeVolatile)
            continue;
        countersJson.emplace(name, Json(counter->value()));
    }

    Json::Object gaugesJson;
    for (const auto &[name, gauge] : gauges)
        gaugesJson.emplace(name, Json(gauge->value()));

    Json::Object histogramsJson;
    for (const auto &[name, histogram] : histograms) {
        Json::Array bucketCounts;
        for (std::size_t b = 0; b < histogram->numBuckets(); ++b)
            bucketCounts.emplace_back(histogram->bucketCountAt(b));
        Json::Object entry;
        entry.emplace("lo", Json(histogram->lowerBound()));
        entry.emplace("hi", Json(histogram->upperBound()));
        entry.emplace("buckets", Json(std::move(bucketCounts)));
        entry.emplace("underflows", Json(histogram->underflows()));
        entry.emplace("overflows", Json(histogram->overflows()));
        entry.emplace("samples", Json(histogram->samples()));
        entry.emplace("min", Json(histogram->minSample()));
        entry.emplace("max", Json(histogram->maxSample()));
        histogramsJson.emplace(name, Json(std::move(entry)));
    }

    Json::Object stats;
    stats.emplace("counters", Json(std::move(countersJson)));
    stats.emplace("gauges", Json(std::move(gaugesJson)));
    stats.emplace("histograms", Json(std::move(histogramsJson)));
    return Json(std::move(stats));
}

void
StatsRegistry::resetValues()
{
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &[name, counter] : counters)
        counter->reset();
    for (const auto &[name, gauge] : gauges)
        gauge->reset();
    for (const auto &[name, histogram] : histograms)
        histogram->reset();
}

std::size_t
StatsRegistry::statCount() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters.size() + gauges.size() + histograms.size();
}

} // namespace mithra::telemetry
