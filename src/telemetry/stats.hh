/**
 * @file
 * Deterministic stats registry: named counters, gauges and fixed-bucket
 * histograms, exported as JSON (toJson()).
 *
 * Determinism contract (what makes the export diffable across runs and
 * thread counts):
 *
 *  - **Sorted iteration.** Stats live in ordered maps keyed by name;
 *    the JSON export walks them in sorted-name order. No
 *    unordered containers anywhere (per the lint rules).
 *  - **Integer accumulation.** Counters and histogram buckets are
 *    64-bit integers, so concurrent accumulation is exact regardless
 *    of interleaving: the merged total is bitwise identical at any
 *    MITHRA_THREADS. Counters are striped across cache-line-padded
 *    slots (indexed by a stable per-thread ordinal) to keep hot-path
 *    increments contention-free; reads merge the stripes in slot-index
 *    order.
 *  - **No order-dependent floats.** Histograms expose per-bucket
 *    counts plus min/max (order-independent) and deliberately no
 *    running double sum — a cross-thread float reduction would break
 *    the bitwise guarantee. Gauges are last-write-wins doubles meant
 *    to be set from serial sections (e.g. "table occupancy after
 *    training").
 *
 * Hot paths register through the MITHRA_COUNT / MITHRA_GAUGE_SET /
 * MITHRA_HIST macros in telemetry/telemetry.hh, which cache the stat
 * reference in a function-local static.
 */

#pragma once

#include <array>
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

/** Stripes per counter; a power of two so the modulo is a mask. */
constexpr std::size_t counterStripes = 16;

/** Stable small ordinal of the calling thread (0, 1, 2, ... in first-use order). */
std::size_t threadOrdinal();

/** A monotonically increasing 64-bit event count. */
class Counter
{
  public:
    /**
     * `isVolatile` marks values that legitimately vary run to run or
     * with the thread count (e.g. chunk-placement statistics); the
     * export and reports exclude them unless explicitly asked,
     * preserving the bitwise determinism guarantee for everything
     * else.
     */
    explicit Counter(std::string name, bool isVolatile = false);

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void add(std::int64_t delta)
    {
        slots[threadOrdinal() & (counterStripes - 1)].value.fetch_add(
            delta, std::memory_order_relaxed);
    }

    void increment() { add(1); }

    /** Merged total, summed in stripe-index order (exact: integers). */
    std::int64_t value() const;

    /** Zero every stripe (tests and multi-run harnesses). */
    void reset();

    const std::string &name() const { return statName; }
    bool isVolatile() const { return volatileStat; }

  private:
    struct alignas(64) Slot
    {
        std::atomic<std::int64_t> value{0};
    };

    std::string statName;
    bool volatileStat;
    std::array<Slot, counterStripes> slots;
};

/** A last-write-wins double (set from serial sections). */
class Gauge
{
  public:
    explicit Gauge(std::string name);

    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void set(double value)
    {
        gaugeValue.store(value, std::memory_order_relaxed);
    }

    double value() const
    {
        return gaugeValue.load(std::memory_order_relaxed);
    }

    void reset() { set(0.0); }

    const std::string &name() const { return statName; }

  private:
    std::string statName;
    std::atomic<double> gaugeValue{0.0};
};

/**
 * Fixed-bucket linear histogram over [lo, hi): `bucketCount` equal
 * buckets plus underflow/overflow. Bucket b covers
 * [lo + b*width, lo + (b+1)*width); a sample equal to `hi` lands in
 * the overflow bucket.
 */
class Histogram
{
  public:
    Histogram(std::string name, double lo, double hi,
              std::size_t bucketCount);

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void record(double value);

    std::int64_t samples() const;
    std::int64_t bucketCountAt(std::size_t bucket) const;
    std::int64_t underflows() const;
    std::int64_t overflows() const;
    /** Smallest / largest recorded sample (0 when empty). */
    double minSample() const;
    double maxSample() const;

    double lowerBound() const { return lo; }
    double upperBound() const { return hi; }
    std::size_t numBuckets() const { return buckets.size(); }
    double bucketWidth() const;

    void reset();

    const std::string &name() const { return statName; }

  private:
    std::string statName;
    double lo;
    double hi;
    std::vector<std::atomic<std::int64_t>> buckets;
    std::atomic<std::int64_t> underflowCount{0};
    std::atomic<std::int64_t> overflowCount{0};
    std::atomic<std::int64_t> sampleCount{0};
    // min/max via CAS loops; order-independent, so still deterministic.
    std::atomic<double> minValue;
    std::atomic<double> maxValue;
};

/**
 * The named-stat registry. One process-wide instance backs the macro
 * layer (global()); tests may construct private instances.
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    /** The process-wide registry the MITHRA_* stat macros feed. */
    static StatsRegistry &global();

    /**
     * Strict registration: MITHRA_EXPECTS the name is not yet taken by
     * any stat kind. Returned references stay valid for the registry's
     * lifetime.
     */
    Counter &addCounter(const std::string &name,
                        bool isVolatile = false);
    Gauge &addGauge(const std::string &name);
    Histogram &addHistogram(const std::string &name, double lo,
                            double hi, std::size_t bucketCount);

    /**
     * Get-or-create lookup used by the macro layer; MITHRA_EXPECTS the
     * existing stat (if any) has the requested kind (and, for
     * histograms, identical bucketing).
     */
    Counter &counter(const std::string &name, bool isVolatile = false);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name, double lo, double hi,
                         std::size_t bucketCount);

    /** Lookups without creation; nullptr when absent. */
    const Counter *findCounter(const std::string &name) const;
    const Gauge *findGauge(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    /**
     * All stats as a JSON object in sorted-name order. Deterministic:
     * same recorded values produce the same document at any thread
     * count. Volatile stats appear only when `includeVolatile` is set.
     */
    Json toJson(bool includeVolatile = false) const;

    /** Zero every registered stat (registrations stay). */
    void resetValues();

    std::size_t statCount() const;

  private:
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

} // namespace mithra::telemetry
