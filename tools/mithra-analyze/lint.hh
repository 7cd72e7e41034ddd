/**
 * @file
 * Lint rules of mithra-analyze — token-level enforcement of
 * MITHRA-specific invariants.
 *
 * The library's headline claim is a *statistical guarantee*, and that
 * guarantee rests on properties no compiler flag checks for us:
 * deterministic randomness, a double-only statistics substrate, and
 * contract-checked subsystems. These rules token-scan the tree and
 * turn violations of those properties into hard errors.
 *
 * Rule catalog (rule ids are what `mithra-lint: allow(<rule>)`
 * annotations name):
 *
 *  no-rand           std::rand / srand / rand_r / drand48: unseeded or
 *                    process-global generators break reproducibility.
 *                    Use common/rng.hh (Rng, rngStream).
 *  no-random-device  std::random_device is nondeterministic by design;
 *                    only common/rng.* may touch entropy sources.
 *  no-time-seed      argless time() / time(nullptr) / time(0): wall
 *                    clock seeding makes runs unreproducible.
 *  no-unordered      unordered_* containers iterate in a hash-dependent
 *                    order, which silently varies across libstdc++
 *                    versions; reduction paths must use ordered
 *                    containers. Lookup-only caches may annotate.
 *  no-float-in-stats src/stats is a double-only substrate (the
 *                    Clopper–Pearson machinery is validated at double
 *                    precision); float types or literals are banned.
 *  pragma-once       headers open with `#pragma once` (before any
 *                    non-comment content).
 *  namespace-mithra  every library file declares namespace mithra.
 *  no-iostream       library code reports through common/logging.hh;
 *                    iostream / fprintf elsewhere bypasses the
 *                    inform() gate benchmarks rely on.
 *  no-naked-assert   assert() vanishes under NDEBUG with no message;
 *                    use MITHRA_ASSERT / MITHRA_EXPECTS /
 *                    MITHRA_ENSURES from common/contracts.hh.
 *  no-raw-timing     std::chrono / clock_gettime / gettimeofday /
 *                    timespec_get / clock() in library code: ad-hoc
 *                    timing bypasses the telemetry layer and leaks
 *                    nondeterministic values into results. Time through
 *                    MITHRA_SPAN (telemetry/span.hh).
 *  no-intrinsics     SIMD intrinsic headers (<immintrin.h> and kin),
 *                    vector types (__m128/__m256/__m512) and _mm*
 *                    intrinsic calls are contained in
 *                    src/common/kernels/ — everything else calls the
 *                    runtime-dispatched kernels:: API, which keeps all
 *                    backends bitwise identical and centrally tested.
 *  no-keyword-identifier
 *                    `final' and `override' used as identifiers
 *                    (`const auto final = ...'): they are contextual
 *                    keywords, and naming variables after them
 *                    confuses readers, tooling and future
 *                    refactorings. Virt-specifier and class-head
 *                    positions (`void f() override', `class X final')
 *                    are of course allowed.
 *  no-dlopen         dlopen / dlsym / dlclose / dlerror and <dlfcn.h>:
 *                    runtime code loading is confined to src/plugin/
 *                    (the sanctioned loader), so the rest of the
 *                    library stays statically analyzable and the
 *                    plugin trust boundary stays in one place.
 *  c-abi-header      include/ headers are the public C plugin ABI and
 *                    must stay C89-clean: classic include guards (not
 *                    `#pragma once`), block comments (no `//`), and
 *                    no C++-only keywords outside the `__cplusplus`
 *                    guard. `plugin_header_c89` (ctest) is the ground
 *                    truth; this rule catches violations at lint speed
 *                    with better messages.
 *
 * Which rules apply depends on the path (see policyForPath): the
 * determinism rules cover src/, bench/ and tests/; the library-hygiene
 * rules (including no-keyword-identifier and no-dlopen) cover src/
 * only; the float ban covers src/stats only; the raw
 * timing ban covers src/ only (bench/ and tests/ may time freely); the
 * intrinsics ban covers src/, bench/ and tests/; the c-abi-header
 * rules cover the C headers under include/ (where pragma-once and
 * namespace-mithra do NOT apply — the ABI header is shared with plain
 * C). common/rng.* is exempt from no-random-device, common/logging.*
 * from no-iostream, src/telemetry/ from no-raw-timing,
 * src/common/kernels/ from no-intrinsics, and src/plugin/ from
 * no-dlopen — they are the sanctioned implementations.
 *
 * A `// mithra-lint: allow(<rule>)` comment suppresses that rule on
 * its own line and the following line.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mithra::lint
{

/** One rule violation, anchored to a file and line. */
struct Diagnostic
{
    std::string file;
    std::size_t line = 0;
    std::string rule;
    std::string message;
};

/** Which rule groups apply to a file, derived from its path. */
struct PathPolicy
{
    /** rand / random_device / time rules (src, bench, tests). */
    bool determinism = false;
    /** unordered / namespace / iostream / assert rules (src only). */
    bool libraryHygiene = false;
    /** float ban (src/stats only). */
    bool doubleOnly = false;
    /** `#pragma once` requirement (every header scanned). */
    bool headerHygiene = false;
    /** Sanctioned entropy implementation (common/rng.*). */
    bool rngImpl = false;
    /** Sanctioned output implementation (common/logging.*). */
    bool loggingImpl = false;
    /** Sanctioned wall-clock homes (src/telemetry/, src/service/). */
    bool timingImpl = false;
    /** Sanctioned SIMD intrinsics home (src/common/kernels/). */
    bool kernelsImpl = false;
    /** Sanctioned dlopen/dlsym home (src/plugin/). */
    bool pluginImpl = false;
    /** C89 plugin-ABI header rules (the .h files under include/). */
    bool cAbiHeader = false;
};

/** Derive the rule policy from a (relative or absolute) path. */
PathPolicy policyForPath(const std::string &path);

/**
 * Lint one translation unit. `path` selects the policy and labels the
 * diagnostics; `source` is the file content. Returns all violations in
 * line order.
 */
std::vector<Diagnostic> lintSource(const std::string &path,
                                   const std::string &source);

/** Lint a file on disk (reads it, then defers to lintSource). */
std::vector<Diagnostic> lintFile(const std::string &path);

/**
 * Recursively collect the lintable files (.cc / .cpp / .hh / .hpp /
 * .h) under `root` in sorted order; a regular file is returned as-is.
 */
std::vector<std::string> collectFiles(const std::string &root);

/** Render one diagnostic as "file:line: error: [rule] message". */
std::string formatDiagnostic(const Diagnostic &diagnostic);

} // namespace mithra::lint
