/**
 * @file
 * Fixed-width table printing and number formatting for the benchmark
 * harness binaries that regenerate the paper's tables and figures.
 */

#pragma once

#include <string>
#include <vector>

namespace mithra::core
{

/** "12.3%" with the given number of decimals. */
std::string fmtPct(double value, int decimals = 1);

/** "2.53x" with the given number of decimals. */
std::string fmtRatio(double value, int decimals = 2);

/** "512 B" below 1 KiB, "1.50 KB" above. */
std::string fmtBytes(double bytes);

/** Bytes rendered as "12.00 KB". */
std::string fmtKb(double bytes, int decimals = 2);

/** A simple aligned console table. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers);

    /** Queue one row (must match the header width). */
    void addRow(std::vector<std::string> cells);

    /** Print headers, separator and all rows to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

/** Print a "== Figure N: title ==" banner. */
void printBanner(const std::string &title);

} // namespace mithra::core

