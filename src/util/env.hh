/**
 * @file
 * Environment-variable configuration knobs shared by the benchmark
 * harnesses. These let the same binary run a quick representative
 * sweep by default and a full paper-scale sweep on request
 * (DESIGN.md, "Per-experiment index").
 */

#ifndef DSE_UTIL_ENV_HH
#define DSE_UTIL_ENV_HH

#include <climits>
#include <string>
#include <vector>

namespace dse {

/** Read an integer env var, or `fallback` when unset, unparsable or
 *  outside [lo, hi]. */
long long envInt(const char *name, long long fallback,
                 long long lo = LLONG_MIN, long long hi = LLONG_MAX);

/** Read a floating-point env var, or `fallback` when unset/unparsable. */
double envDouble(const char *name, double fallback);

/** Read a boolean env var ("1"/"true"/"yes" are true). */
bool envBool(const char *name, bool fallback);

/** Read a comma-separated list env var, or `fallback` when unset. */
std::vector<std::string> envList(const char *name,
                                 const std::vector<std::string> &fallback);

} // namespace dse

#endif // DSE_UTIL_ENV_HH
