/**
 * @file
 * The macro layer every subsystem instruments through.
 *
 *  MITHRA_SPAN("npu.train.epoch");     — scoped trace span: wall/CPU
 *      time + invocation count for the enclosing scope, Chrome-trace
 *      exportable (see telemetry/span.hh).
 *  MITHRA_COUNT("sim.accept", n);      — add n to a named counter.
 *  MITHRA_GAUGE_SET("hw.density", d);  — set a last-write-wins gauge.
 *  MITHRA_HIST("npu.mse", 0, 1, 20, v) — record v into a fixed-bucket
 *      histogram over [0, 1) with 20 buckets.
 *
 * Each macro resolves its stat once (function-local static reference)
 * and then costs one relaxed atomic RMW per hit — cheap enough for
 * per-chunk accounting, still too much for the innermost arithmetic
 * loops; instrument at phase/bulk granularity there (pass the bulk
 * count to MITHRA_COUNT instead of counting per element).
 *
 * This header defines only macros (which expand to fully qualified
 * ::mithra::telemetry names), so it opens no namespace itself.
 * mithra-lint: allow(namespace-mithra)
 */

#pragma once

#include "telemetry/run_report.hh"
#include "telemetry/span.hh"
#include "telemetry/stats.hh"

#define MITHRA_TELEMETRY_CAT2_(a, b) a##b
#define MITHRA_TELEMETRY_CAT_(a, b) MITHRA_TELEMETRY_CAT2_(a, b)

/** Time the enclosing scope under the given span name. */
#define MITHRA_SPAN(name)                                                   \
    static ::mithra::telemetry::SpanSite &MITHRA_TELEMETRY_CAT_(            \
        mithraSpanSite_, __LINE__) =                                        \
        ::mithra::telemetry::SpanRegistry::global().site(name);             \
    const ::mithra::telemetry::ScopedSpan MITHRA_TELEMETRY_CAT_(            \
        mithraSpan_, __LINE__)(MITHRA_TELEMETRY_CAT_(mithraSpanSite_,       \
                                                     __LINE__))

/** Add `delta` to the counter `name`. */
#define MITHRA_COUNT(name, delta)                                           \
    do {                                                                    \
        static ::mithra::telemetry::Counter &mithraCounter_ =               \
            ::mithra::telemetry::StatsRegistry::global().counter(name);     \
        mithraCounter_.add(                                                 \
            static_cast<std::int64_t>(delta));                              \
    } while (0)

/** Set the gauge `name` to `value` (last write wins). */
#define MITHRA_GAUGE_SET(name, value)                                       \
    do {                                                                    \
        static ::mithra::telemetry::Gauge &mithraGauge_ =                   \
            ::mithra::telemetry::StatsRegistry::global().gauge(name);       \
        mithraGauge_.set(static_cast<double>(value));                       \
    } while (0)

/** Record `value` in histogram `name` over [lo, hi) with `buckets`. */
#define MITHRA_HIST(name, lo, hi, buckets, value)                           \
    do {                                                                    \
        static ::mithra::telemetry::Histogram &mithraHistogram_ =           \
            ::mithra::telemetry::StatsRegistry::global().histogram(         \
                name, lo, hi, buckets);                                     \
        mithraHistogram_.record(static_cast<double>(value));                \
    } while (0)
