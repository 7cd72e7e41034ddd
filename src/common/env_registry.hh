/**
 * @file
 * Central registry of every `MITHRA_*` environment variable, plus the
 * checked accessors all library code reads them through.
 *
 * Scattered `getenv` + `atoi` parsing is how configuration drift
 * starts: two call sites disagree on a default, a typoed variable name
 * silently reads as "unset", and the README table rots. This header is
 * the single source of truth:
 *
 *  - `registry` lists every variable with its value domain, default
 *    and a one-line doc string. mithra-analyze pass 4 (`env-registry`
 *    rule) enforces that every `getenv("MITHRA_...")` in the tree
 *    names an entry here, that raw `getenv` appears nowhere else in
 *    library code, and that every entry appears in README.md's
 *    environment table (regenerate the table with
 *    `mithra-analyze --env-table`).
 *
 *  - The typed accessors (`countIn`, `realIn`, `flag`, `text`)
 *    range-validate on read and fail a MITHRA_EXPECTS
 *    contract on malformed values, so a typo like MITHRA_THREADS=1e3
 *    dies with the offending text instead of half-applying.
 *
 * Reading an unregistered name through an accessor is itself a
 * contract violation: registration is not optional documentation.
 */

#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "common/contracts.hh"

namespace mithra::env
{

/** One registered environment variable. */
struct VarInfo
{
    const char *name;     ///< "MITHRA_THREADS"
    const char *values;   ///< human-readable value domain
    const char *fallback; ///< human-readable default
    const char *doc;      ///< one-line description (README table cell)
};

/**
 * Every MITHRA_* environment variable the tree reads, in the order the
 * README table presents them. mithra-analyze checks both directions:
 * tree use -> registry entry, registry entry -> README row.
 */
inline constexpr std::array<VarInfo, 13> registry{{
    {"MITHRA_SCALE", "float in (0, 100]", "`1.0`",
     "scales dataset counts/sizes; 1.0 = 250 compile + 250 validation "
     "datasets per benchmark, `0.1` ≈ minutes-long smoke run"},
    {"MITHRA_THREADS", "int in [1, 1024]", "all hardware threads",
     "sizes the worker pool (compile pipeline, threshold optimizer, "
     "trainers); `1` forces the exact serial code path; bitwise "
     "identical at any value"},
    {"MITHRA_KERNELS", "`scalar`, `avx2`", "best supported",
     "SIMD backend for the batch kernels (NPU MACs, MISR hashing, "
     "quantizer); every backend bitwise identical (`DESIGN.md` §10)"},
    {"MITHRA_CACHE", "path", "`.mithra-cache.tsv`",
     "shared experiment result cache; delete to recompute"},
    {"MITHRA_PLUGINS", "colon-separated paths", "none",
     "plugin `.so` files to load (workloads and accelerator backends, "
     "`docs/PLUGINS.md`), in order; each must speak plugin ABI v1 "
     "(`include/mithra_plugin.h`)"},
    {"MITHRA_REPORT_DIR", "dir", "`.`",
     "where bench binaries write `BENCH_<name>.json` run reports"},
    {"MITHRA_REPORT_TIMING", "flag", "off",
     "include nondeterministic span wall/CPU times in run reports"},
    {"MITHRA_TRACE", "path", "off",
     "buffer every telemetry span as a Chrome trace-event file "
     "(`chrome://tracing`, Perfetto)"},
    {"MITHRA_SERVE_PORT", "int in [0, 65535]", "`0`",
     "TCP port `mithra-serve` binds (`DESIGN.md` §14); `0` picks an "
     "ephemeral port, printed on stdout and via `--port-file`"},
    {"MITHRA_SERVE_WORKERS", "int in [1, 256]", "`4`",
     "connection worker threads of the service shell; changing it "
     "never changes decisions or certificates"},
    {"MITHRA_SERVE_JOB_QUEUE", "int in [1, 4096]", "`16`",
     "bounded depth of the async compile/train job queue; `POST /jobs` "
     "answers 429 when full"},
    {"MITHRA_SERVE_MAX_BODY", "int in [1024, 2^30]", "`8388608`",
     "largest accepted HTTP request body in bytes; larger requests "
     "are refused with 413"},
    {"MITHRA_SERVE_TIMEOUT_MS", "int in [100, 600000]", "`10000`",
     "per-connection idle/read timeout of the service shell in "
     "milliseconds"},
}};

/** Registry entry for `name`, or nullptr when unregistered. */
inline constexpr const VarInfo *
find(std::string_view name)
{
    for (const VarInfo &info : registry) {
        if (name == info.name)
            return &info;
    }
    return nullptr;
}

/**
 * The raw value of a *registered* variable, or nullptr when unset.
 * The one sanctioned `getenv` in library code (mithra-analyze's
 * env-registry rule bans it everywhere else).
 */
inline const char *
raw(const char *name)
{
    MITHRA_EXPECTS(find(name) != nullptr,
                   "unregistered environment variable ", name,
                   " — add it to src/common/env_registry.hh");
    return std::getenv(name);
}

/** Integer count in [lo, hi]; `fallback` when unset. */
inline std::size_t
countIn(const char *name, long lo, long hi, std::size_t fallback)
{
    const char *value = raw(name);
    if (!value)
        return fallback;
    char *end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    MITHRA_EXPECTS(end != value && *end == '\0' && parsed >= lo
                       && parsed <= hi,
                   name, " must be an integer in [", lo, ", ", hi,
                   "], got `", value, "'");
    return static_cast<std::size_t>(parsed);
}

/**
 * Real number in the interval between `lo` and `hi`; the bounds are
 * exclusive/inclusive per `openLow`/`openHigh`. `fallback` when unset.
 */
inline double
realIn(const char *name, double lo, double hi, double fallback,
       bool openLow = true, bool openHigh = true)
{
    const char *value = raw(name);
    if (!value)
        return fallback;
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    const bool aboveLow = openLow ? parsed > lo : parsed >= lo;
    const bool belowHigh = openHigh ? parsed < hi : parsed <= hi;
    MITHRA_EXPECTS(end != value && *end == '\0' && aboveLow
                       && belowHigh,
                   name, " must be a float in ", openLow ? "(" : "[",
                   lo, ", ", hi, openHigh ? ")" : "]", ", got `", value,
                   "'");
    return parsed;
}

/** Boolean flag: set, non-empty and not starting with '0'. */
inline bool
flag(const char *name, bool fallback = false)
{
    const char *value = raw(name);
    if (!value)
        return fallback;
    return value[0] != '\0' && value[0] != '0';
}

/** Raw string value; `fallback` (may be nullptr) when unset/empty. */
inline const char *
text(const char *name, const char *fallback = nullptr)
{
    const char *value = raw(name);
    return value && *value ? value : fallback;
}

} // namespace mithra::env
