/**
 * @file
 * Contract-checking macros for the whole library.
 *
 * Three macros express the three kinds of executable contracts; all of
 * them take a condition plus a streamed explanation (message and
 * offending values):
 *
 *  MITHRA_EXPECTS(cond, ...) — a *precondition*: the caller handed us
 *      arguments or state outside the documented domain.
 *  MITHRA_ENSURES(cond, ...) — a *postcondition*: we are about to
 *      return a result that violates our own documented guarantee.
 *  MITHRA_ASSERT(cond, ...)  — an *internal invariant*: intermediate
 *      state that must hold if the code is correct.
 *
 * A failed contract reports kind, condition, file:line and the
 * formatted message, then aborts (so death tests and core dumps both
 * work). Checks are compiled into every build, Release (NDEBUG)
 * included: classifier and simulator state is cheap to check relative
 * to the modeled work, and the statistical guarantee is only as good
 * as the invariants these checks hold.
 */

#pragma once

#include <string>

#include "common/logging.hh"

namespace mithra::detail
{

/** Report a failed contract (kind/condition/location) and abort. */
[[noreturn]] void contractFailure(const char *kind, const char *condition,
                                  const char *file, int line,
                                  const std::string &message);

} // namespace mithra::detail

#define MITHRA_CONTRACT_(kind, cond, ...)                                   \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::mithra::detail::contractFailure(                              \
                kind, #cond, __FILE__, __LINE__,                            \
                ::mithra::detail::concat(__VA_ARGS__));                     \
        }                                                                   \
    } while (0)

/** Check an internal invariant; see file comment for semantics. */
#define MITHRA_ASSERT(cond, ...)                                            \
    MITHRA_CONTRACT_("invariant", cond, __VA_ARGS__)

/** Check a caller-facing precondition; see file comment for semantics. */
#define MITHRA_EXPECTS(cond, ...)                                           \
    MITHRA_CONTRACT_("precondition", cond, __VA_ARGS__)

/** Check a result postcondition; see file comment for semantics. */
#define MITHRA_ENSURES(cond, ...)                                           \
    MITHRA_CONTRACT_("postcondition", cond, __VA_ARGS__)
