/**
 * @file
 * Lint rule tests (tools/mithra-analyze/lint.hh): each rule is fed a
 * known-bad snippet and must fire with the right rule id and
 * file:line, and a known-good variant must stay clean. Snippets live
 * in raw strings, which the lint tokenizer strips — so this file
 * itself lints clean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.hh"

namespace
{

using mithra::lint::Diagnostic;
using mithra::lint::lintSource;
using mithra::lint::policyForPath;

/** All diagnostics for `source` at a src/ library path. */
std::vector<Diagnostic>
lintAt(const std::string &path, const std::string &source)
{
    return lintSource(path, source);
}

bool
fired(const std::vector<Diagnostic> &diagnostics,
      const std::string &rule, std::size_t line)
{
    return std::any_of(diagnostics.begin(), diagnostics.end(),
                       [&](const Diagnostic &d) {
                           return d.rule == rule && d.line == line;
                       });
}

bool
firedRule(const std::vector<Diagnostic> &diagnostics,
          const std::string &rule)
{
    return std::any_of(diagnostics.begin(), diagnostics.end(),
                       [&](const Diagnostic &d) {
                           return d.rule == rule;
                       });
}

/** A minimal clean library file all bad snippets are derived from. */
const char *cleanSource = R"cpp(#pragma once

namespace mithra
{
int answer() { return 42; }
} // namespace mithra
)cpp";

TEST(Lint, CleanFilePasses)
{
    EXPECT_TRUE(lintAt("src/core/clean.hh", cleanSource).empty());
}

TEST(Lint, UnseededRandFires)
{
    const auto diagnostics = lintAt("src/core/bad.cc", R"cpp(#pragma once
namespace mithra
{
int roll() { return std::rand() % 6; }
} // namespace mithra
)cpp");
    EXPECT_TRUE(fired(diagnostics, "no-rand", 4));
}

TEST(Lint, SrandFires)
{
    const auto diagnostics = lintAt("src/core/bad.cc", R"cpp(
namespace mithra
{
void reseed(unsigned s) { srand(s); }
} // namespace mithra
)cpp");
    EXPECT_TRUE(fired(diagnostics, "no-rand", 4));
}

TEST(Lint, RandomDeviceFiresOutsideRngImpl)
{
    const std::string source = R"cpp(#pragma once
#include <random>
namespace mithra
{
std::random_device entropy;
} // namespace mithra
)cpp";
    EXPECT_TRUE(fired(lintAt("src/core/bad.hh", source),
                      "no-random-device", 5));
    // The sanctioned implementation is exempt by path.
    EXPECT_FALSE(firedRule(lintAt("src/common/rng.cc", source),
                           "no-random-device"));
}

TEST(Lint, WallClockTimeSeedFires)
{
    const auto diagnostics = lintAt("src/core/bad.cc", R"cpp(
namespace mithra
{
long stamp() { return time(nullptr); }
long stamp0() { return std::time(0); }
} // namespace mithra
)cpp");
    EXPECT_TRUE(fired(diagnostics, "no-time-seed", 4));
    EXPECT_TRUE(fired(diagnostics, "no-time-seed", 5));
}

TEST(Lint, TimeWithRealArgumentDoesNotFire)
{
    const auto diagnostics = lintAt("src/core/ok.cc", R"cpp(
namespace mithra
{
long stamp(long *out) { return time(out); }
long runtime() { return 7; }
} // namespace mithra
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-time-seed"));
}

TEST(Lint, UnorderedContainerFires)
{
    const auto diagnostics = lintAt("src/core/bad.hh", R"cpp(#pragma once
#include <unordered_map>
namespace mithra
{
std::unordered_map<int, int> histogram;
} // namespace mithra
)cpp");
    EXPECT_TRUE(fired(diagnostics, "no-unordered", 2));
    EXPECT_TRUE(fired(diagnostics, "no-unordered", 5));
}

TEST(Lint, UnorderedAllowAnnotationSuppresses)
{
    const auto diagnostics = lintAt("src/core/ok.hh", R"cpp(#pragma once
// lookup-only cache: mithra-lint: allow(no-unordered)
#include <unordered_map>
namespace mithra
{
} // namespace mithra
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-unordered"));
}

TEST(Lint, FloatInStatsFires)
{
    const std::string source = R"cpp(
namespace mithra::stats
{
float half() { return 0.5f; }
} // namespace mithra::stats
)cpp";
    const auto diagnostics = lintAt("src/stats/bad.cc", source);
    EXPECT_TRUE(fired(diagnostics, "no-float-in-stats", 4));
    // Same code outside src/stats is not double-only.
    EXPECT_FALSE(firedRule(lintAt("src/npu/ok.cc", source),
                           "no-float-in-stats"));
}

TEST(Lint, HexLiteralSuffixIsNotAFloat)
{
    const auto diagnostics = lintAt("src/stats/ok.cc", R"cpp(
namespace mithra::stats
{
unsigned mask() { return 0x2F; }
double scaled() { return 0x1.0p-53; }
} // namespace mithra::stats
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-float-in-stats"));
}

TEST(Lint, MissingPragmaOnceFires)
{
    const auto diagnostics = lintAt("src/core/bad.hh", R"cpp(
#ifndef BAD_HH
#define BAD_HH
namespace mithra
{
} // namespace mithra
#endif
)cpp");
    EXPECT_TRUE(fired(diagnostics, "pragma-once", 2));
}

TEST(Lint, PragmaOnceAfterDocCommentPasses)
{
    const auto diagnostics = lintAt("src/core/ok.hh", R"cpp(/**
 * @file doc comment first is fine.
 */
#pragma once
namespace mithra
{
} // namespace mithra
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "pragma-once"));
}

TEST(Lint, MissingNamespaceFires)
{
    const auto diagnostics = lintAt("src/core/bad.cc", R"cpp(
int looseFunction() { return 1; }
)cpp");
    EXPECT_TRUE(firedRule(diagnostics, "namespace-mithra"));
}

TEST(Lint, NestedNamespacePasses)
{
    const auto diagnostics = lintAt("src/core/ok.cc", R"cpp(
namespace mithra::axbench::jpeg
{
int ok() { return 1; }
} // namespace mithra::axbench::jpeg
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "namespace-mithra"));
}

TEST(Lint, IostreamInLibraryFires)
{
    const std::string source = R"cpp(
#include <iostream>
#include <cstdio>
namespace mithra
{
void shout() { std::cerr << "x"; std::fprintf(stderr, "x"); }
} // namespace mithra
)cpp";
    const auto diagnostics = lintAt("src/core/bad.cc", source);
    EXPECT_TRUE(fired(diagnostics, "no-iostream", 2));
    EXPECT_TRUE(fired(diagnostics, "no-iostream", 6));
    // logging.cc is the sanctioned output path.
    EXPECT_FALSE(firedRule(lintAt("src/common/logging.cc", source),
                           "no-iostream"));
    // Harness code (tests/, bench/) may print freely.
    EXPECT_FALSE(firedRule(lintAt("tests/ok.cpp", source),
                           "no-iostream"));
}

TEST(Lint, NakedAssertFires)
{
    const auto diagnostics = lintAt("src/core/bad.cc", R"cpp(
#include <cassert>
namespace mithra
{
void check(int x) { assert(x > 0); }
} // namespace mithra
)cpp");
    EXPECT_TRUE(fired(diagnostics, "no-naked-assert", 2));
    EXPECT_TRUE(fired(diagnostics, "no-naked-assert", 5));
}

TEST(Lint, ContractMacrosAndStaticAssertPass)
{
    const auto diagnostics = lintAt("src/core/ok.cc", R"cpp(
namespace mithra
{
void check(int x)
{
    MITHRA_ASSERT(x > 0, "x must be positive, got ", x);
    static_assert(sizeof(int) >= 4);
}
} // namespace mithra
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-naked-assert"));
}

TEST(Lint, ViolationsInsideStringsAndCommentsIgnored)
{
    const auto diagnostics = lintAt("src/core/ok.cc", R"cpp(
namespace mithra
{
// std::rand() in a comment is documentation, not a call.
const char *hint = "never call srand() or std::random_device";
} // namespace mithra
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-rand"));
    EXPECT_FALSE(firedRule(diagnostics, "no-random-device"));
}

TEST(Lint, RawTimingFiresInLibraryCode)
{
    const auto diagnostics = lintAt("src/core/bad.cc", R"cpp(
#include <chrono>
#include <ctime>
namespace mithra
{
double now()
{
    timespec ts;
    clock_gettime(0, &ts);
    gettimeofday(nullptr, nullptr);
    timespec_get(&ts, 1);
    return static_cast<double>(clock());
}
} // namespace mithra
)cpp");
    EXPECT_TRUE(fired(diagnostics, "no-raw-timing", 2));
    EXPECT_TRUE(fired(diagnostics, "no-raw-timing", 9));
    EXPECT_TRUE(fired(diagnostics, "no-raw-timing", 10));
    EXPECT_TRUE(fired(diagnostics, "no-raw-timing", 11));
    EXPECT_TRUE(fired(diagnostics, "no-raw-timing", 12));
}

TEST(Lint, RawTimingExemptionsAndAllows)
{
    const char *source = R"cpp(
namespace mithra
{
double now()
{
    timespec ts;
    clock_gettime(0, &ts);
    return static_cast<double>(ts.tv_sec);
}
} // namespace mithra
)cpp";
    // The telemetry layer is the sanctioned timing implementation.
    EXPECT_FALSE(firedRule(lintAt("src/telemetry/span.cc", source),
                           "no-raw-timing"));
    // Harness code (bench/, tests/) may time freely.
    EXPECT_FALSE(firedRule(lintAt("bench/micro_parallel.cpp", source),
                           "no-raw-timing"));
    EXPECT_FALSE(firedRule(lintAt("tests/test_parallel.cpp", source),
                           "no-raw-timing"));
    // An allow() annotation suppresses the rule on the next line.
    const auto diagnostics = lintAt("src/core/ok.cc", R"cpp(
namespace mithra
{
// mithra-lint: allow(no-raw-timing)
long jiffies() { return clock(); }
} // namespace mithra
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-raw-timing"));
}

TEST(Lint, ClockIdentifierWithoutCallDoesNotFire)
{
    const auto diagnostics = lintAt("src/core/ok.cc", R"cpp(
namespace mithra
{
struct CoreParams { double clock = 2.0e9; };
double hz(const CoreParams &p) { return p.clock; }
} // namespace mithra
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-raw-timing"));
}

TEST(Lint, IntrinsicsOutsideKernelsFire)
{
    const std::string source = R"cpp(
#include <immintrin.h>
namespace mithra
{
float sum8(const float *x)
{
    __m256 v = _mm256_loadu_ps(x);
    __m128 lo = _mm256_castps256_ps128(v);
    (void)lo;
    return _mm_cvtss_f32(_mm_setzero_ps());
}
} // namespace mithra
)cpp";
    const auto diagnostics = lintAt("src/npu/bad.cc", source);
    EXPECT_TRUE(fired(diagnostics, "no-intrinsics", 2));
    EXPECT_TRUE(fired(diagnostics, "no-intrinsics", 7));
    EXPECT_TRUE(fired(diagnostics, "no-intrinsics", 8));
    EXPECT_TRUE(fired(diagnostics, "no-intrinsics", 10));
    // Harness code is not exempt: bench/ and tests/ must also go
    // through the dispatched kernels API.
    EXPECT_TRUE(firedRule(lintAt("bench/micro_bad.cpp", source),
                          "no-intrinsics"));
    EXPECT_TRUE(firedRule(lintAt("tests/test_bad.cpp", source),
                          "no-intrinsics"));
    // The kernels layer is the sanctioned home.
    EXPECT_FALSE(
        firedRule(lintAt("src/common/kernels/kernels_avx2.cc", source),
                  "no-intrinsics"));
}

TEST(Lint, IntrinsicHeaderVariantsFire)
{
    const auto diagnostics = lintAt("src/core/bad.cc", R"cpp(
#include <xmmintrin.h>
#include <x86intrin.h>
#include <arm_neon.h>
namespace mithra
{
} // namespace mithra
)cpp");
    EXPECT_TRUE(fired(diagnostics, "no-intrinsics", 2));
    EXPECT_TRUE(fired(diagnostics, "no-intrinsics", 3));
    EXPECT_TRUE(fired(diagnostics, "no-intrinsics", 4));
}

TEST(Lint, NonIntrinsicIdentifiersPass)
{
    const auto diagnostics = lintAt("src/core/ok.cc", R"cpp(
namespace mithra
{
int _mmap_like = 0;
int immintrinsically = 1;
bool cpuHasAvx2() { return __builtin_cpu_supports("avx2"); }
} // namespace mithra
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-intrinsics"));
}

TEST(Lint, KeywordIdentifierFires)
{
    const auto diagnostics = lintAt("src/core/bad.cc", R"cpp(
namespace mithra
{
int compute();
void f()
{
    const auto final = compute();
    int override = final + 1;
    (void)override;
}
} // namespace mithra
)cpp");
    EXPECT_TRUE(fired(diagnostics, "no-keyword-identifier", 7));
    EXPECT_TRUE(fired(diagnostics, "no-keyword-identifier", 8));
}

TEST(Lint, SpecifierPositionsDoNotFire)
{
    const auto diagnostics = lintAt("src/core/ok.hh", R"cpp(#pragma once
namespace mithra
{
class Base
{
  public:
    virtual ~Base() = default;
    virtual int get() const = 0;
    virtual int move() = 0;
    virtual int quiet() noexcept = 0;
};
class X final : public Base
{
  public:
    int get() const override { return 1; }
    int move() && final override { return 2; }
    int quiet() noexcept override { return 3; }
};
struct Y final
{
};
} // namespace mithra
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-keyword-identifier"));
}

TEST(Lint, KeywordIdentifierIsLibraryOnly)
{
    // tests/ and bench/ may shadow the contextual keywords (gtest
    // fixtures sometimes do); only library code is held to the rule.
    const auto diagnostics = lintAt("tests/test_x.cpp", R"cpp(
void f()
{
    int final = 1;
    (void)final;
}
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-keyword-identifier"));
}

TEST(Lint, KeywordIdentifierAllowAnnotationSuppresses)
{
    const auto diagnostics = lintAt("src/core/ok.cc", R"cpp(
namespace mithra
{
int compute();
// legacy name: mithra-lint: allow(no-keyword-identifier)
const auto final = compute();
} // namespace mithra
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-keyword-identifier"));
}

TEST(Lint, DiagnosticFormatHasFileAndLine)
{
    const auto diagnostics = lintAt("src/core/bad.cc", R"cpp(
namespace mithra
{
int roll() { return rand(); }
} // namespace mithra
)cpp");
    ASSERT_TRUE(firedRule(diagnostics, "no-rand"));
    const auto &d = *std::find_if(diagnostics.begin(),
                                  diagnostics.end(),
                                  [](const Diagnostic &x) {
                                      return x.rule == "no-rand";
                                  });
    const std::string rendered = mithra::lint::formatDiagnostic(d);
    EXPECT_NE(rendered.find("src/core/bad.cc:4"), std::string::npos);
    EXPECT_NE(rendered.find("[no-rand]"), std::string::npos);
}

TEST(Lint, DlopenOutsidePluginLoaderFires)
{
    const auto diagnostics = lintAt("src/core/sneaky.cc", R"cpp(
namespace mithra
{
void *load(const char *path) { return dlopen(path, 2); }
void *find(void *h, const char *s) { return dlsym(h, s); }
} // namespace mithra
)cpp");
    EXPECT_TRUE(fired(diagnostics, "no-dlopen", 4));
    EXPECT_TRUE(fired(diagnostics, "no-dlopen", 5));
}

TEST(Lint, DlopenAllowedInPluginLoader)
{
    const auto diagnostics = lintAt("src/plugin/loader.cc", R"cpp(
namespace mithra
{
void *load(const char *path) { return dlopen(path, 2); }
} // namespace mithra
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-dlopen"));
}

TEST(Lint, DlopenIsLibraryOnly)
{
    // Tests may poke at loaders freely; only src/ is confined.
    const auto diagnostics = lintAt("tests/test_plugin.cpp", R"cpp(
void *load(const char *path) { return dlopen(path, 2); }
)cpp");
    EXPECT_FALSE(firedRule(diagnostics, "no-dlopen"));
}

/** A minimal well-formed C ABI header. */
const char *cleanAbiHeader = R"c(/* doc */
#ifndef MITHRA_X_H
#define MITHRA_X_H

#ifdef __cplusplus
extern "C" {
#endif

struct mithra_x { unsigned v; };

#ifdef __cplusplus
}
#endif

#endif /* MITHRA_X_H */
)c";

TEST(Lint, CleanCAbiHeaderPasses)
{
    EXPECT_TRUE(lintAt("include/mithra_x.h", cleanAbiHeader).empty());
}

TEST(Lint, CAbiHeaderRejectsPragmaOnce)
{
    const auto diagnostics = lintAt("include/mithra_x.h", R"c(
#pragma once
struct mithra_x { unsigned v; };
)c");
    EXPECT_TRUE(firedRule(diagnostics, "c-abi-header"));
    // And the C++ header rule stays quiet — include/ is not its turf.
    EXPECT_FALSE(firedRule(diagnostics, "pragma-once"));
    EXPECT_FALSE(firedRule(diagnostics, "namespace-mithra"));
}

TEST(Lint, CAbiHeaderRejectsCppKeywordsOutsideGuard)
{
    const auto diagnostics = lintAt("include/mithra_x.h", R"c(
#ifndef MITHRA_X_H
#define MITHRA_X_H
class mithra_x;
template <typename T> struct y;
#endif
)c");
    EXPECT_TRUE(fired(diagnostics, "c-abi-header", 4));
    EXPECT_TRUE(fired(diagnostics, "c-abi-header", 5));
}

TEST(Lint, CAbiHeaderAllowsCppInsideCplusplusGuard)
{
    const auto diagnostics = lintAt("include/mithra_x.h", R"c(
#ifndef MITHRA_X_H
#define MITHRA_X_H
#ifdef __cplusplus
extern "C" {
class gated;
}
#endif
#endif
)c");
    EXPECT_FALSE(firedRule(diagnostics, "c-abi-header"));
}

TEST(Lint, CAbiHeaderRejectsLineComments)
{
    const auto diagnostics = lintAt("include/mithra_x.h", R"c(
#ifndef MITHRA_X_H
#define MITHRA_X_H
struct mithra_x { unsigned v; }; // not C89
#endif
)c");
    EXPECT_TRUE(fired(diagnostics, "c-abi-header", 4));
}

TEST(Lint, CAbiHeaderIgnoresSlashesInStringsAndBlockComments)
{
    const auto diagnostics = lintAt("include/mithra_x.h", R"c(
#ifndef MITHRA_X_H
#define MITHRA_X_H
/* a // inside a block comment is fine */
static const char *mithra_x_url = "http://example.com";
#endif
)c");
    EXPECT_FALSE(firedRule(diagnostics, "c-abi-header"));
}

TEST(Lint, RealPluginHeaderIsClean)
{
    // The shipped ABI header must satisfy its own rule (the C89
    // compile test in CMake is the ground truth; this keeps the lint
    // rule honest against the real file).
    const auto diagnostics =
        mithra::lint::lintFile(std::string(MITHRA_SOURCE_DIR)
                               + "/include/mithra_plugin.h");
    EXPECT_TRUE(diagnostics.empty());
}

TEST(Lint, PolicySelection)
{
    EXPECT_TRUE(policyForPath("src/stats/summary.cc").doubleOnly);
    EXPECT_FALSE(policyForPath("src/npu/mlp.cc").doubleOnly);
    EXPECT_TRUE(policyForPath("bench/fig01_error_cdf.cpp").determinism);
    EXPECT_FALSE(policyForPath("bench/fig01_error_cdf.cpp")
                     .libraryHygiene);
    EXPECT_TRUE(policyForPath("/abs/repo/src/hw/misr.cc")
                    .libraryHygiene);
    EXPECT_TRUE(policyForPath("src/common/rng.cc").rngImpl);
    EXPECT_TRUE(policyForPath("src/common/logging.hh").loggingImpl);
    EXPECT_TRUE(policyForPath("src/telemetry/span.cc").timingImpl);
    EXPECT_FALSE(policyForPath("src/core/pipeline.cc").timingImpl);
    EXPECT_TRUE(policyForPath("src/common/kernels/kernels_avx2.cc")
                    .kernelsImpl);
    EXPECT_FALSE(policyForPath("src/common/parallel.hh").kernelsImpl);
    EXPECT_TRUE(policyForPath("src/plugin/loader.cc").pluginImpl);
    EXPECT_FALSE(policyForPath("src/core/pipeline.cc").pluginImpl);
    EXPECT_TRUE(policyForPath("include/mithra_plugin.h").cAbiHeader);
    EXPECT_FALSE(policyForPath("include/mithra_plugin.h")
                     .headerHygiene);
    EXPECT_FALSE(policyForPath("src/axbench/registry.hh").cAbiHeader);
}

} // namespace
