#include "core/report.hh"

#include <cstdio>

#include "common/contracts.hh"

namespace mithra::core
{

std::string
fmtPct(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, value);
    return buf;
}

std::string
fmtRatio(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*fx", decimals, value);
    return buf;
}

std::string
fmtBytes(double bytes)
{
    char buf[64];
    if (bytes < 1024.0)
        std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
    else
        std::snprintf(buf, sizeof(buf), "%.2f KB", bytes / 1024.0);
    return buf;
}

std::string
fmtKb(double bytes, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f KB", decimals, bytes / 1024.0);
    return buf;
}

TablePrinter::TablePrinter(std::vector<std::string> headersIn)
    : headers(std::move(headersIn))
{
    MITHRA_EXPECTS(!headers.empty(), "table needs at least one column");
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    MITHRA_ASSERT(cells.size() == headers.size(),
                  "row width ", cells.size(), " != header width ",
                  headers.size());
    rows.push_back(std::move(cells));
}

void
TablePrinter::print() const
{
    std::vector<std::size_t> widths(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        widths[c] = headers[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto printRow = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            std::printf("%-*s", static_cast<int>(widths[c]) + 2,
                        cells[c].c_str());
        }
        std::printf("\n");
    };

    printRow(headers);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows)
        printRow(row);
}

void
printBanner(const std::string &title)
{
    std::printf("\n== %s ==\n\n", title.c_str());
}

} // namespace mithra::core
