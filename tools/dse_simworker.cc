/**
 * @file
 * Simulation-worker daemon: serve SimulateBatch requests from a
 * RemoteDispatcher (dse_explore --workers / DSE_WORKERS) until
 * SIGINT/SIGTERM, then drain gracefully.
 *
 * The worker rebuilds each requested (study, app, trace length)
 * context on demand and memoizes per context, so repeat batches from
 * one exploration cost only the new points. Results are bit-identical
 * to the dispatcher simulating locally (purity + raw IEEE-754 wire
 * encoding), which is what makes worker failure recoverable by
 * re-dispatch or local fallback.
 *
 * Examples:
 *   dse_simworker --port=7080
 *   dse_simworker --port=0 --port-file=/tmp/w1.port
 *   DSE_FAULTS=remote.worker.crash:0.05:1 dse_simworker --port=7080
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "remote/worker.hh"
#include "util/metrics.hh"

using namespace dse;

namespace {

struct Options
{
    remote::SimWorkerOptions worker;
    std::string portFile;
    bool metrics = false;
    std::string metricsPath;
};

void
usage()
{
    std::puts(
        "usage: dse_simworker [options]\n"
        "  --addr=<ip>            bind address (default 127.0.0.1)\n"
        "  --port=<n>             TCP port (default 0 = ephemeral)\n"
        "  --port-file=<path>     write the bound port to a file\n"
        "  --threads=<n>          server worker threads (DSE_THREADS)\n"
        "  --max-batch=<n>        max design points per request (4096)\n"
        "  --fault-salt=<n>       mixed into fault-site keys so\n"
        "                         co-located workers fail independently\n"
        "  --metrics[=path]       dse::obs report at shutdown\n"
        "env: DSE_SERVE_ADDR, DSE_SERVE_QUEUE, DSE_SERVE_WORKERS,\n"
        "     DSE_FAULTS (remote.worker.crash)\n"
        "exit codes: 0 ok, 1 bad usage, 2 invalid input, 3 runtime or\n"
        "I/O failure, 4 internal (3 also after an injected crash)");
}

bool
parseArg(const char *arg, const char *name, std::string &out)
{
    const size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
        out = arg + len + 1;
        return true;
    }
    return false;
}

bool
parse(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        std::string value;
        const char *arg = argv[i];
        if (parseArg(arg, "--addr", value)) {
            opts.worker.server.addr = value;
        } else if (parseArg(arg, "--port", value)) {
            opts.worker.server.port =
                static_cast<uint16_t>(std::atoi(value.c_str()));
        } else if (parseArg(arg, "--port-file", value)) {
            opts.portFile = value;
        } else if (parseArg(arg, "--threads", value)) {
            opts.worker.server.workers =
                static_cast<size_t>(std::atoll(value.c_str()));
        } else if (parseArg(arg, "--max-batch", value)) {
            opts.worker.maxBatchPoints =
                static_cast<size_t>(std::atoll(value.c_str()));
        } else if (parseArg(arg, "--fault-salt", value)) {
            opts.worker.faultSalt =
                static_cast<uint64_t>(std::atoll(value.c_str()));
        } else if (std::strcmp(arg, "--metrics") == 0) {
            opts.metrics = true;
        } else if (parseArg(arg, "--metrics", value)) {
            opts.metrics = true;
            opts.metricsPath = value;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usage();
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg);
            return false;
        }
    }
    return true;
}

serve::Server *g_server = nullptr;

void
onSignal(int)
{
    // Async-signal-safe: flips an atomic and pokes the wake pipe.
    if (g_server)
        g_server->requestStop();
}

int
run(int argc, char **argv)
{
    Options opts;
    // The daemon emulates crashes for real: the process exits without
    // a reply, exactly what the dispatcher's failover expects.
    opts.worker.crashExits = true;
    if (!parse(argc, argv, opts)) {
        usage();
        return 1;
    }
    if (opts.metrics)
        obs::setMetricsEnabled(true);

    remote::SimWorker worker(opts.worker);
    worker.start();

    g_server = &worker.server();
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("simulation worker on %s:%u\n",
                opts.worker.server.addr.c_str(), worker.port());
    std::fflush(stdout);
    if (!opts.portFile.empty()) {
        FILE *f = std::fopen(opts.portFile.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write port file " +
                                     opts.portFile);
        std::fprintf(f, "%u\n", worker.port());
        std::fclose(f);
    }

    worker.server().waitForStopRequest();
    std::printf("draining...\n");
    worker.stop();
    g_server = nullptr;

    std::printf("served %llu batches\n",
                static_cast<unsigned long long>(worker.batchesServed()));
    if (opts.metrics)
        obs::reportGlobalMetrics(opts.metricsPath);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "dse_simworker: invalid input: %s\n",
                     e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dse_simworker: error: %s\n", e.what());
        return 3;
    } catch (...) {
        std::fprintf(stderr, "dse_simworker: unknown fatal error\n");
        return 4;
    }
}
