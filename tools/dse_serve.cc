/**
 * @file
 * Prediction-service daemon: load (or train) an ensemble model and
 * serve it over the dse::serve wire protocol until SIGINT/SIGTERM,
 * then drain gracefully.
 *
 * Examples:
 *   dse_serve --model=mcf.model --study=memory --port=7070
 *   dse_serve --study=memory --app=gzip --train --max-sims=200
 *   dse_serve --port=0 --port-file=/tmp/port --metrics=serve.json
 */

#include <climits>
#include <cstdio>
#include <string>

#include "cli.hh"
#include "ml/explorer.hh"
#include "ml/io.hh"
#include "serve/server.hh"
#include "study/harness.hh"
#include "util/metrics.hh"

using namespace dse;

namespace {

struct Options
{
    serve::ServerOptions server = serve::ServerOptions::fromEnv();
    std::string model;  ///< ensemble file to serve
    bool hasStudy = false;
    study::StudyKind kind = study::StudyKind::MemorySystem;
    std::string app;
    bool train = false;
    size_t maxSims = 200;
    int maxEpochs = 2000;
    std::string portFile;  ///< write the bound port here (scripts)
    cli::Metrics metrics;
};

const char *const kUsage =
    "usage: dse_serve [options]\n"
    "  --model=<path>             serve a saved ensemble file\n"
    "  --study=memory|processor   attach a design space (enables\n"
    "                             PredictRange; required to train)\n"
    "  --app=<name>               benchmark to train on\n"
    "  --train                    train at startup (needs study+app)\n"
    "  --max-sims=<n>             training simulation cap (200)\n"
    "  --max-epochs=<n>           per-network epoch cap (2000)\n"
    "  --addr=<ip>                bind address (default 127.0.0.1)\n"
    "  --port=<n>                 TCP port (default 0 = ephemeral)\n"
    "  --port-file=<path>         write the bound port to a file\n"
    "  --workers=<n>              worker threads (default DSE_THREADS)\n"
    "                             (at most 1024)\n"
    "  --queue=<n>                request-queue capacity (256)\n"
    "  --batch=<n>                max coalesced points (1024)\n"
    "  --metrics[=path]           dse::obs report at shutdown\n"
    "env: DSE_SERVE_ADDR, DSE_SERVE_BATCH, DSE_SERVE_QUEUE,\n"
    "     DSE_SERVE_WORKERS, DSE_SERVE_IDLE_MS, DSE_SERVE_WRITE_MS\n"
    "     (flags win over env)\n"
    "exit codes: 0 ok, 1 bad usage, 2 invalid input, 3 runtime or\n"
    "I/O failure, 4 internal";

Options
parse(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        cli::Arg a(argv[i]);
        if (a.has("--model")) {
            opts.model = a.value();
        } else if (a.has("--study")) {
            opts.kind = a.study();
            opts.hasStudy = true;
        } else if (a.has("--app")) {
            opts.app = a.value();
        } else if (a.has("--max-sims")) {
            opts.maxSims = a.count(1);
        } else if (a.has("--max-epochs")) {
            opts.maxEpochs = static_cast<int>(a.count(0, INT_MAX));
        } else if (a.has("--addr")) {
            opts.server.addr = a.value();
        } else if (a.has("--port")) {
            opts.server.port = a.port();
        } else if (a.has("--port-file")) {
            opts.portFile = a.value();
        } else if (a.has("--workers")) {
            opts.server.workers = a.count(0, util::ThreadPool::kMaxThreads);
        } else if (a.has("--queue")) {
            opts.server.queueCapacity = a.count();
        } else if (a.has("--batch")) {
            opts.server.maxBatchPoints = a.count();
        } else if (a.is("--train")) {
            opts.train = true;
        } else if (!a.metrics(opts.metrics)) {
            a.unknown();
        }
    }
    if (opts.train && (!opts.hasStudy || opts.app.empty()))
        throw cli::UsageError("--train needs --study and --app");
    return opts;
}

int
run(int argc, char **argv)
{
    const Options opts = parse(argc, argv);
    if (opts.metrics.on)
        obs::setMetricsEnabled(true);

    serve::ModelState state;
    if (opts.hasStudy) {
        state.space = std::make_shared<const ml::DesignSpace>(
            study::spaceFor(opts.kind));
        state.study = study::studyName(opts.kind);
        state.app = opts.app;
    }
    if (!opts.model.empty()) {
        state.ensemble = std::make_shared<const ml::Ensemble>(
            ml::loadEnsemble(opts.model));
        std::printf("model loaded from %s (%zu members)\n",
                    opts.model.c_str(), state.ensemble->members());
    } else if (opts.train) {
        std::printf("training %s/%s (max %zu sims)...\n",
                    study::studyName(opts.kind), opts.app.c_str(),
                    opts.maxSims);
        study::StudyContext ctx(opts.kind, opts.app);
        ml::ExplorerOptions eopts;
        eopts.batchSize = opts.maxSims;
        eopts.maxSimulations = opts.maxSims;
        eopts.targetMeanPct = 0.0;  // one full batch, then serve
        eopts.train.maxEpochs = opts.maxEpochs;
        ml::Explorer explorer(
            ctx.space(),
            [&](const auto &batch) { return ctx.simulateBatch(batch); },
            eopts);
        explorer.step();
        state.ensemble = std::make_shared<const ml::Ensemble>(
            explorer.ensemble());
        std::printf("trained: estimated error %.2f%% +- %.2f%%\n",
                    state.ensemble->estimate().meanPct,
                    state.ensemble->estimate().sdPct);
    } else {
        std::printf("no model at startup; waiting for LoadModel\n");
    }

    serve::Server server(opts.server);
    if (state.ensemble || state.space)
        server.setModel(std::move(state));
    server.start();
    cli::serveUntilSignal(server, "serving", opts.server.addr,
                          opts.portFile);

    const auto stats = server.statsSnapshot();
    std::printf("served %llu requests (%llu predictions, "
                "%llu coalesced, %llu overloaded, %llu protocol "
                "errors) over %llu connections\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.predictions),
                static_cast<unsigned long long>(stats.batchedRequests),
                static_cast<unsigned long long>(stats.overloaded),
                static_cast<unsigned long long>(stats.protocolErrors),
                static_cast<unsigned long long>(
                    stats.connectionsAccepted));

    if (opts.metrics.on)
        obs::reportGlobalMetrics(opts.metrics.path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::main("dse_serve", kUsage, run, argc, argv);
}
