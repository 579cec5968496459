/**
 * @file
 * The front end the five command-line tools share: one `--name=value`
 * grammar, strict numbers, and one exit-code policy (0 ok, 1 bad
 * usage, 2 invalid input, 3 runtime or I/O failure, 4 internal).
 *
 * A count is decimal digits only, a real a finite number; either must
 * fill its whole value and lie in the flag's range, or the command
 * line is bad usage, never a silent 0. Parsing is string work only:
 * nothing here builds a study, a pool or a registry, and nothing has
 * a dynamic initialiser (dse_explore's launch-to-header time).
 */

#ifndef DSE_TOOLS_CLI_HH
#define DSE_TOOLS_CLI_HH

#include <atomic>
#include <cfloat>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "serve/server.hh"
#include "study/spaces.hh"

namespace dse {
namespace cli {

/** A malformed command line: exit 1 with the message and the usage. */
class UsageError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/** @p text as a count in [lo, hi], else UsageError naming @p flag. */
uint64_t parseCount(const char *flag, const std::string &text,
                    uint64_t lo = 0, uint64_t hi = UINT64_MAX);

/** @p text as a finite real >= @p lo, else UsageError naming @p flag. */
double parseReal(const char *flag, const std::string &text,
                 double lo = -DBL_MAX);

/** `memory`, `memory-system` or `processor`, else UsageError. */
study::StudyKind parseStudy(const std::string &text);

/** `--metrics` (table on stdout) or `--metrics=<path>` (JSON). */
struct Metrics
{
    bool on = false;
    std::string path;
};

/**
 * One argument, matched against flag names; it keeps a pointer to the
 * text, which must outlive it (an argv entry does):
 *
 *     cli::Arg a(argv[i]);
 *     if (a.has("--batch"))          opts.batch = a.count(1);
 *     else if (a.is("--simpoint"))   opts.simpoint = true;
 *     else                           a.unknown();
 */
class Arg
{
  public:
    explicit Arg(const char *arg) : arg_(arg) {}

    /** The argument is exactly the switch @p name. */
    bool is(const char *name) const;
    /** The argument is `name=value`; the getters then read the value. */
    bool has(const char *name);
    /** `--metrics` or `--metrics=<path>`, recorded in @p m. */
    bool metrics(Metrics &m);
    /** Throw UsageError("unknown option '<arg>'"). */
    [[noreturn]] void unknown() const;

    const std::string &value() const { return value_; }
    uint64_t count(uint64_t lo = 0, uint64_t hi = UINT64_MAX) const
    {
        return parseCount(name_, value_, lo, hi);
    }
    double real(double lo = -DBL_MAX) const
    {
        return parseReal(name_, value_, lo);
    }
    uint16_t port() const
    {
        return static_cast<uint16_t>(count(0, 65535));
    }
    study::StudyKind study() const { return parseStudy(value_); }

  private:
    const char *arg_;
    const char *name_ = "";
    std::string value_;
};

namespace detail {

/** The server SIGINT/SIGTERM stops: constant-initialised, and
 *  lock-free so the handler may read it. */
inline std::atomic<serve::Server *> g_server{nullptr};

inline void
onSignal(int)
{
    // Async-signal-safe: flips an atomic and pokes the wake pipe.
    if (serve::Server *server = g_server.load())
        server->requestStop();
}

} // namespace detail

/**
 * Park a started daemon until SIGINT/SIGTERM (SIGPIPE ignored): print
 * "<banner> on <addr>:<port>", write the port to @p portFile if set
 * (scripts poll it for an ephemeral port), wait for the stop request,
 * print "draining..." and drain with Server::stop(). Inline, so only
 * the two daemons link the server.
 */
inline void
serveUntilSignal(serve::Server &server, const char *banner,
                 const std::string &addr, const std::string &portFile)
{
    // Disarmed on every way out: no signal reaches a destroyed server.
    struct Armed
    {
        explicit Armed(serve::Server &s) { detail::g_server.store(&s); }
        ~Armed() { detail::g_server.store(nullptr); }
    } armed(server);
    std::signal(SIGINT, detail::onSignal);
    std::signal(SIGTERM, detail::onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("%s on %s:%u\n", banner, addr.c_str(), server.port());
    std::fflush(stdout);
    if (!portFile.empty()) {
        FILE *f = std::fopen(portFile.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write port file " + portFile);
        std::fprintf(f, "%u\n", server.port());
        std::fclose(f);
    }
    server.waitForStopRequest();
    std::printf("draining...\n");
    server.stop();
}

/**
 * A tool's whole main(): `--help`/`-h` anywhere prints @p usage and
 * exits 0; else @p run's result, or for what it throws one
 * "<tool>: ..." line on stderr and exit 1 (UsageError, plus the
 * usage), 2 (std::invalid_argument), 3 (other std::exception) or 4.
 */
int main(const char *tool, const char *usage, int (*run)(int, char **),
         int argc, char **argv);

} // namespace cli
} // namespace dse

#endif // DSE_TOOLS_CLI_HH
