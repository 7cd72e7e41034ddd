/**
 * @file
 * mithra-analyze — static analysis over the MITHRA tree.
 *
 * The lint rules (lint.hh) enforce *token-level* invariants over
 * src/, bench/, tests/ and include/: a banned identifier is an error
 * wherever it appears. The four semantic passes below reason about
 * relationships the token rules cannot see: which file includes
 * which, where a value came from before it reached a sink, what a
 * parallel lambda captures and writes. They cover src/, bench/,
 * tools/ and tests/. Rules and passes run off one lexer (lex.hh):
 *
 *  Pass 1 — layering (`layering`, `include-cycle`)
 *      Extracts the project include graph and checks it against the
 *      declarative layer DAG in tools/mithra-analyze/layers.txt.
 *      Every scanned file must map to exactly one layer (longest
 *      path-prefix match); an include crossing layers must follow a
 *      declared `allow` edge. Edges are explicit, not transitive —
 *      if core may use telemetry and telemetry may use common, core
 *      must still declare common to include it. File-level include
 *      cycles are reported with the full cycle printed.
 *
 *  Pass 2 — determinism taint (`taint-flow`)
 *      A translation-unit-local taint pass over src/ (src/telemetry/
 *      is the sanctioned quarantine and is exempt). Nondeterminism
 *      sources: getenv, rand-family, random_device, timing calls
 *      (chrono, clock_gettime, wallClockNs, ...), threadOrdinal,
 *      thread_local variables, and range-for iteration over
 *      unordered_* or pointer-keyed containers. Taint propagates
 *      through assignments (`x = tainted`) within one function body
 *      and through `return tainted;` into the enclosing function's
 *      name TU-wide. A tainted identifier reaching a report /
 *      telemetry / cache-key sink (MITHRA_COUNT, MITHRA_GAUGE_SET,
 *      MITHRA_HIST, addMetric, counter/gauge/histogram, cacheKey) is
 *      an error. Strictly stronger than the lint token rules:
 *      those catch the source, this catches the *flow*.
 *
 *  Pass 3 — parallel-capture race heuristic (`capture-race`)
 *      Inside lambda bodies passed to parallelFor / parallelForChunks
 *      / parallelMapReduce, a write (assignment, compound assignment,
 *      increment/decrement) to a by-reference capture is an error
 *      unless it is (a) a lambda local or parameter, (b) a per-slot
 *      indexed write (`out[i] = ...` where the index involves a
 *      lambda parameter or local), (c) a variable declared
 *      std::atomic in the TU, or (d) preceded by a
 *      lock_guard/scoped_lock/unique_lock declaration in the same
 *      body. A cheap, always-on complement to the tsan matrix.
 *
 *  Pass 4 — env-var registry (`env-registry`)
 *      Every `getenv`/`setenv` (and env:: accessor) naming a
 *      `MITHRA_*` variable must name an entry of
 *      src/common/env_registry.hh; raw getenv outside the registry
 *      header is banned in library code outright; and the registry
 *      and README.md's environment table must agree in both
 *      directions (`mithra-analyze --env-table` regenerates the
 *      table).
 *
 * Suppressions share the lint rules' annotation grammar under this
 * tool's name: `// mithra-analyze: allow(<rule>)` on the offending
 * line or the line above (lint rules keep
 * `// mithra-lint: allow(<rule>)`). Lint rules and passes report in
 * one `file:line: error: [rule] message` format.
 *
 * Known false-negative envelope (deliberate: the pass must stay
 * milliseconds-fast and zero-dependency): taint does not track flows
 * through containers, struct fields, out-parameters, or across
 * translation units; the capture pass does not see writes through
 * pointers, references bound before the lambda, or mutating method
 * calls; includes hidden behind macros are invisible. The tsan matrix
 * and contract checks backstop those. False positives are expected to
 * be rare and are handled with an annotation plus a one-line
 * justification.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint.hh"

namespace mithra::analyze
{

/** Shared diagnostic type/format with the lint rules. */
using lint::Diagnostic;
using lint::formatDiagnostic;

/** One translation unit handed to the passes. `path` is repo-root
 *  relative with forward slashes; `display` (optional) is what
 *  diagnostics print — defaults to `path`. */
struct SourceFile
{
    std::string path;
    std::string source;
    std::string display;

    const std::string &shown() const
    {
        return display.empty() ? path : display;
    }
};

// ---------------------------------------------------------------- Pass 1

/** Parsed layers.txt. */
struct LayerSpec
{
    struct Layer
    {
        std::string name;
        std::vector<std::string> prefixes; ///< path prefixes, slashed
        std::vector<std::string> allowed;  ///< layers it may include
    };
    std::vector<Layer> layers;

    /** Index of the layer owning `path` (longest prefix match), or
     *  SIZE_MAX when no layer matches. */
    std::size_t layerOf(const std::string &path) const;

    /** Whether layer `from` may include layer `to` (reflexive). */
    bool edgeAllowed(std::size_t from, std::size_t to) const;
};

/**
 * Parse the layers.txt grammar:
 *
 *     # comment
 *     layer <name> <path-prefix> [<path-prefix>...]
 *     allow <name> -> <dep> [<dep>...]
 *
 * Syntax errors and spec-level cycles (the `allow` edges must form a
 * DAG) are appended to `diagnostics` under rule `layer-spec`, anchored
 * to `specPath`.
 */
LayerSpec parseLayerSpec(const std::string &specPath,
                         const std::string &text,
                         std::vector<Diagnostic> &diagnostics);

/**
 * Check every in-tree include edge against the spec and the include
 * graph for file-level cycles. Include targets are resolved against
 * the including file's directory, then `src/`, the repo root, and the
 * tool directories; unresolved includes are treated as external and
 * ignored.
 */
std::vector<Diagnostic> checkLayering(const LayerSpec &spec,
                                      const std::vector<SourceFile> &files);

// ---------------------------------------------------------------- Pass 2

/** Determinism taint over one TU (pass decides applicability from the
 *  path: src/ only, src/telemetry/ exempt). */
std::vector<Diagnostic> checkTaint(const SourceFile &file);

// ---------------------------------------------------------------- Pass 3

/** Parallel-capture race heuristic over one TU (all scanned roots). */
std::vector<Diagnostic> checkCaptures(const SourceFile &file);

// ---------------------------------------------------------------- Pass 4

/** The env-var registry as parsed from src/common/env_registry.hh. */
struct EnvRegistry
{
    struct Entry
    {
        std::string name;
        std::string values;
        std::string fallback;
        std::string doc;
    };
    std::vector<Entry> entries;

    bool registered(const std::string &name) const;
};

/** Extract the `registry` initializer entries from the header. */
EnvRegistry parseEnvRegistry(const std::string &source);

/** Env-var use rules over one TU. */
std::vector<Diagnostic> checkEnvUse(const EnvRegistry &registry,
                                    const SourceFile &file);

/** Registry <-> README environment-table consistency. */
std::vector<Diagnostic> checkReadme(const EnvRegistry &registry,
                                    const std::string &readmePath,
                                    const std::string &readmeText);

/** Render the README environment table from the registry. */
std::string renderEnvTable(const EnvRegistry &registry);

// ----------------------------------------------------------------- Driver

struct TreeReport
{
    std::vector<Diagnostic> diagnostics;
    std::size_t fileCount = 0;
};

/**
 * Run the lint rules over `<root>/{src,bench,tests,include}` and all
 * four passes over `<root>/{src,bench,tools,tests}` with the spec at
 * `<root>/tools/mithra-analyze/layers.txt`, the registry at
 * `<root>/src/common/env_registry.hh` and `<root>/README.md`.
 * Diagnostics come back sorted by (file, line).
 */
TreeReport analyzeTree(const std::string &root);

} // namespace mithra::analyze
