#include "cli.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dse {
namespace cli {

namespace {

[[noreturn]] void
badValue(const char *flag, const std::string &text, const std::string &want)
{
    throw UsageError(std::string(flag) + "='" + text + "': expected " +
                     want);
}

} // namespace

uint64_t
parseCount(const char *flag, const std::string &text, uint64_t lo,
           uint64_t hi)
{
    // strtoull alone would accept a sign ("-1" wraps), blanks and "0x".
    const bool digits = !text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos;
    errno = 0;
    const unsigned long long v =
        digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
    if (!digits || errno == ERANGE || v < lo || v > hi)
        badValue(flag, text,
                 "a count in " + std::to_string(lo) + ".." +
                     (hi < UINT64_MAX ? std::to_string(hi) : ""));
    return v;
}

double
parseReal(const char *flag, const std::string &text, double lo)
{
    // strtod alone would skip leading blanks and accept "nan"/"inf".
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || !std::isfinite(v) || v < lo) {
        char want[48] = "a number";
        if (lo > -DBL_MAX)
            std::snprintf(want, sizeof want, "a number >= %g", lo);
        badValue(flag, text, want);
    }
    return v;
}

study::StudyKind
parseStudy(const std::string &text)
{
    if (text == "memory" || text == "memory-system")
        return study::StudyKind::MemorySystem;
    if (text == "processor")
        return study::StudyKind::Processor;
    throw UsageError("unknown study '" + text + "'");
}

bool
Arg::is(const char *name) const
{
    return std::strcmp(arg_, name) == 0;
}

bool
Arg::has(const char *name)
{
    const size_t len = std::strlen(name);
    if (std::strncmp(arg_, name, len) != 0 || arg_[len] != '=')
        return false;
    name_ = name;
    value_ = arg_ + len + 1;
    return true;
}

bool
Arg::metrics(Metrics &m)
{
    if (!is("--metrics") && !has("--metrics"))
        return false;
    m.on = true;
    m.path = value_;
    return true;
}

void
Arg::unknown() const
{
    throw UsageError(std::string("unknown option '") + arg_ + "'");
}

int
main(const char *tool, const char *usage, int (*run)(int, char **),
     int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            std::puts(usage);
            return 0;
        }
    }
    try {
        return run(argc, argv);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "%s: %s\n", tool, e.what());
        std::puts(usage);
        return 1;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: invalid input: %s\n", tool, e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
        return 3;
    } catch (...) {
        std::fprintf(stderr, "%s: unknown fatal error\n", tool);
        return 4;
    }
}

} // namespace cli
} // namespace dse
