/**
 * @file
 * Shared number formatting for human-readable output.
 *
 * These helpers serve the table/figure harness binaries;
 * core/report.hh re-exports them into mithra::core for its callers.
 */

#pragma once

#include <string>

namespace mithra
{

/** "12.3%" with the given number of decimals. */
std::string fmtPct(double value, int decimals = 1);

/** "2.53x" with the given number of decimals. */
std::string fmtRatio(double value, int decimals = 2);

/** "512 B" below 1 KiB, "1.50 KB" above. */
std::string fmtBytes(double bytes);

/** Bytes rendered as "12.00 KB". */
std::string fmtKb(double bytes, int decimals = 2);

} // namespace mithra
