#include "util/env.hh"

#include <algorithm>
#include <cstdlib>

#include "util/table.hh"

namespace dse {

namespace {

const char *
rawEnv(const char *name)
{
    const char *v = std::getenv(name);
    return (v && *v) ? v : nullptr;
}

} // namespace

long long
envInt(const char *name, long long fallback, long long lo, long long hi)
{
    const char *v = rawEnv(name);
    if (!v)
        return fallback;
    char *end = nullptr;
    long long parsed = std::strtoll(v, &end, 10);
    return (end && *end == '\0' && parsed >= lo && parsed <= hi)
        ? parsed
        : fallback;
}

double
envDouble(const char *name, double fallback)
{
    const char *v = rawEnv(name);
    if (!v)
        return fallback;
    char *end = nullptr;
    double parsed = std::strtod(v, &end);
    return (end && *end == '\0') ? parsed : fallback;
}

bool
envBool(const char *name, bool fallback)
{
    const char *v = rawEnv(name);
    if (!v)
        return fallback;
    std::string s(v);
    std::transform(s.begin(), s.end(), s.begin(), ::tolower);
    if (s == "1" || s == "true" || s == "yes" || s == "on")
        return true;
    if (s == "0" || s == "false" || s == "no" || s == "off")
        return false;
    return fallback;
}

std::vector<std::string>
envList(const char *name, const std::vector<std::string> &fallback)
{
    const char *v = rawEnv(name);
    if (!v)
        return fallback;
    auto parts = split(v, ',');
    return parts.empty() ? fallback : parts;
}

} // namespace dse
