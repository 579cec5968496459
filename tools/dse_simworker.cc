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

#include <cstdio>
#include <string>

#include "cli.hh"
#include "remote/worker.hh"
#include "util/metrics.hh"

using namespace dse;

namespace {

struct Options
{
    remote::SimWorkerOptions worker;
    std::string portFile;
    cli::Metrics metrics;
};

const char *const kUsage =
    "usage: dse_simworker [options]\n"
    "  --addr=<ip>            bind address (default 127.0.0.1)\n"
    "  --port=<n>             TCP port (default 0 = ephemeral)\n"
    "  --port-file=<path>     write the bound port to a file\n"
    "  --threads=<n>          server worker threads (DSE_THREADS)\n"
    "                         (at most 1024)\n"
    "  --max-batch=<n>        max design points per request (4096)\n"
    "  --fault-salt=<n>       mixed into fault-site keys so\n"
    "                         co-located workers fail independently\n"
    "  --metrics[=path]       dse::obs report at shutdown\n"
    "env: DSE_SERVE_ADDR, DSE_SERVE_QUEUE, DSE_SERVE_WORKERS,\n"
    "     DSE_FAULTS (remote.worker.crash)\n"
    "exit codes: 0 ok, 1 bad usage, 2 invalid input, 3 runtime or\n"
    "I/O failure, 4 internal (3 also after an injected crash)";

int
run(int argc, char **argv)
{
    Options opts;
    // The daemon emulates crashes for real: the process exits without
    // a reply, exactly what the dispatcher's failover expects.
    opts.worker.crashExits = true;
    for (int i = 1; i < argc; ++i) {
        cli::Arg a(argv[i]);
        if (a.has("--addr"))
            opts.worker.server.addr = a.value();
        else if (a.has("--port"))
            opts.worker.server.port = a.port();
        else if (a.has("--port-file"))
            opts.portFile = a.value();
        else if (a.has("--threads"))
            opts.worker.server.workers =
                a.count(0, util::ThreadPool::kMaxThreads);
        else if (a.has("--max-batch"))
            opts.worker.maxBatchPoints = a.count();
        else if (a.has("--fault-salt"))
            opts.worker.faultSalt = a.count();
        else if (!a.metrics(opts.metrics))
            a.unknown();
    }
    if (opts.metrics.on)
        obs::setMetricsEnabled(true);

    remote::SimWorker worker(opts.worker);
    worker.start();
    cli::serveUntilSignal(worker.server(), "simulation worker",
                          opts.worker.server.addr, opts.portFile);

    std::printf("served %llu batches\n",
                static_cast<unsigned long long>(worker.batchesServed()));
    if (opts.metrics.on)
        obs::reportGlobalMetrics(opts.metrics.path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::main("dse_simworker", kUsage, run, argc, argv);
}
