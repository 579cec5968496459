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

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

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
    bool metrics = false;
    std::string metricsPath;
};

void
usage()
{
    std::puts(
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
        "  --queue=<n>                request-queue capacity (256)\n"
        "  --batch=<n>                max coalesced points (1024)\n"
        "  --metrics[=path]           dse::obs report at shutdown\n"
        "env: DSE_SERVE_ADDR, DSE_SERVE_BATCH, DSE_SERVE_BATCH_US,\n"
        "     DSE_SERVE_QUEUE, DSE_SERVE_WORKERS, DSE_SERVE_IDLE_MS,\n"
        "     DSE_SERVE_WRITE_MS (flags win over env)\n"
        "exit codes: 0 ok, 1 bad usage, 2 invalid input, 3 runtime or\n"
        "I/O failure, 4 internal");
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
        if (parseArg(arg, "--model", value)) {
            opts.model = value;
        } else if (parseArg(arg, "--study", value)) {
            if (value == "memory" || value == "memory-system") {
                opts.kind = study::StudyKind::MemorySystem;
            } else if (value == "processor") {
                opts.kind = study::StudyKind::Processor;
            } else {
                std::fprintf(stderr, "unknown study '%s'\n",
                             value.c_str());
                return false;
            }
            opts.hasStudy = true;
        } else if (parseArg(arg, "--app", value)) {
            opts.app = value;
        } else if (parseArg(arg, "--max-sims", value)) {
            opts.maxSims =
                static_cast<size_t>(std::atoll(value.c_str()));
        } else if (parseArg(arg, "--max-epochs", value)) {
            opts.maxEpochs = std::atoi(value.c_str());
        } else if (parseArg(arg, "--addr", value)) {
            opts.server.addr = value;
        } else if (parseArg(arg, "--port", value)) {
            opts.server.port =
                static_cast<uint16_t>(std::atoi(value.c_str()));
        } else if (parseArg(arg, "--port-file", value)) {
            opts.portFile = value;
        } else if (parseArg(arg, "--workers", value)) {
            opts.server.workers =
                static_cast<size_t>(std::atoll(value.c_str()));
        } else if (parseArg(arg, "--queue", value)) {
            opts.server.queueCapacity =
                static_cast<size_t>(std::atoll(value.c_str()));
        } else if (parseArg(arg, "--batch", value)) {
            opts.server.maxBatchPoints =
                static_cast<size_t>(std::atoll(value.c_str()));
        } else if (std::strcmp(arg, "--train") == 0) {
            opts.train = true;
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
    if (opts.train && (!opts.hasStudy || opts.app.empty())) {
        std::fprintf(stderr, "--train needs --study and --app\n");
        return false;
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
    if (!parse(argc, argv, opts)) {
        usage();
        return 1;
    }
    if (opts.metrics)
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

    g_server = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("serving on %s:%u\n", opts.server.addr.c_str(),
                server.port());
    std::fflush(stdout);
    if (!opts.portFile.empty()) {
        // Written after listen() succeeds: scripts poll this file to
        // learn the ephemeral port.
        FILE *f = std::fopen(opts.portFile.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write port file " +
                                     opts.portFile);
        std::fprintf(f, "%u\n", server.port());
        std::fclose(f);
    }

    server.waitForStopRequest();
    std::printf("draining...\n");
    server.stop();
    g_server = nullptr;

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
        std::fprintf(stderr, "dse_serve: invalid input: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dse_serve: error: %s\n", e.what());
        return 3;
    } catch (...) {
        std::fprintf(stderr, "dse_serve: unknown fatal error\n");
        return 4;
    }
}
