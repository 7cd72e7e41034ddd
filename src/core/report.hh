/**
 * @file
 * Fixed-width table printing and number formatting for the benchmark
 * harness binaries that regenerate the paper's tables and figures.
 */

#pragma once

#include <string>
#include <vector>

#include "common/format.hh"

namespace mithra::core
{

// The format helpers live in common/format.hh; re-exported here for
// the harness binaries.
using mithra::fmtBytes;
using mithra::fmtKb;
using mithra::fmtPct;
using mithra::fmtRatio;

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

