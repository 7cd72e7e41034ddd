#include "common/format.hh"

#include <cstdio>

namespace mithra
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

} // namespace mithra
