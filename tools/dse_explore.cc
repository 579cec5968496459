/**
 * @file
 * Command-line front end for the library: run a predictive
 * design-space exploration of either paper study on any bundled
 * benchmark without writing code, save the trained model, and query
 * it later.
 *
 * Examples:
 *   dse_explore --study=processor --app=gzip --target-error=2
 *   dse_explore --study=memory --app=mcf --simpoint --max-sims=400 \
 *               --save-model=mcf.model
 *   dse_explore --study=memory --app=mcf --load-model=mcf.model \
 *               --predict=12345 --predict=99
 *   dse_explore --study=processor --app=crafty --describe-space
 */

#include <climits>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli.hh"
#include "ml/explorer.hh"
#include "ml/io.hh"
#include "remote/dispatcher.hh"
#include "study/harness.hh"
#include "util/metrics.hh"
#include "workload/profile.hh"

using namespace dse;

namespace {

struct Options
{
    study::StudyKind kind = study::StudyKind::Processor;
    std::string app = "gzip";
    double targetError = 2.0;
    size_t batch = 50;
    size_t maxSims = 1000;
    bool simpoint = false;
    bool active = false;
    bool describeSpace = false;
    bool listApps = false;
    std::string saveModel;
    std::string loadModel;
    std::vector<uint64_t> predictIndices;
    int maxEpochs = 5000;
    cli::Metrics metrics;
    std::string workers;      ///< host:port,... (also DSE_WORKERS)
};

const char *const kUsage =
    "usage: dse_explore [options]\n"
    "  --study=memory|processor   design space (default processor)\n"
    "  --app=<name>               benchmark (default gzip)\n"
    "  --target-error=<pct>       stop threshold (default 2.0)\n"
    "  --batch=<n>                sims per round (default 50)\n"
    "  --max-sims=<n>             simulation cap (default 1000)\n"
    "  --max-epochs=<n>           per-network budget (default 5000)\n"
    "  --simpoint                 train on SimPoint estimates\n"
    "  --active                   active-learning sampling\n"
    "  --save-model=<path>        write the trained ensemble\n"
    "  --load-model=<path>        skip training, load a model\n"
    "  --predict=<index>          predict a design point (repeat)\n"
    "  --workers=<host:port,...>  remote simulation workers\n"
    "                             (default $DSE_WORKERS; failures\n"
    "                             fall back to local simulation)\n"
    "  --describe-space           print the space and exit\n"
    "  --list-apps                print benchmark names and exit\n"
    "  --metrics[=path]           collect dse::obs metrics; print a\n"
    "                             table, or write JSON to <path>\n"
    "exit codes: 0 ok, 1 bad usage, 2 invalid input (unknown app/\n"
    "index/model contents), 3 runtime or I/O failure, 4 internal";

Options
parse(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        cli::Arg a(argv[i]);
        if (a.has("--study"))
            opts.kind = a.study();
        else if (a.has("--app"))
            opts.app = a.value();
        else if (a.has("--target-error"))
            opts.targetError = a.real(0);
        else if (a.has("--batch"))
            opts.batch = a.count(1);
        else if (a.has("--max-sims"))
            opts.maxSims = a.count();
        else if (a.has("--max-epochs"))
            opts.maxEpochs = static_cast<int>(a.count(0, INT_MAX));
        else if (a.has("--save-model"))
            opts.saveModel = a.value();
        else if (a.has("--load-model"))
            opts.loadModel = a.value();
        else if (a.has("--predict"))
            opts.predictIndices.push_back(a.count());
        else if (a.has("--workers"))
            opts.workers = a.value();
        else if (a.is("--simpoint"))
            opts.simpoint = true;
        else if (a.is("--active"))
            opts.active = true;
        else if (a.is("--describe-space"))
            opts.describeSpace = true;
        else if (a.is("--list-apps"))
            opts.listApps = true;
        else if (!a.metrics(opts.metrics))
            a.unknown();
    }
    return opts;
}

void
describeSpace(const ml::DesignSpace &space)
{
    std::printf("%llu design points, %zu parameters, %d encoded "
                "inputs\n",
                static_cast<unsigned long long>(space.size()),
                space.numParams(), space.encodedWidth());
    for (size_t p = 0; p < space.numParams(); ++p) {
        const auto &desc = space.param(p);
        std::printf("  %-16s", desc.name.c_str());
        for (int l = 0; l < desc.numLevels(); ++l)
            std::printf(" %s", space.levelText(p, l).c_str());
        std::printf("\n");
    }
}

void
printPoint(study::StudyContext &ctx, const ml::Ensemble &model,
           uint64_t idx)
{
    const auto &space = ctx.space();
    if (idx >= space.size()) {
        std::printf("point %llu: out of range (space has %llu)\n",
                    static_cast<unsigned long long>(idx),
                    static_cast<unsigned long long>(space.size()));
        return;
    }
    const double pred = model.predict(space.encodeIndex(idx));
    std::printf("point %llu: predicted IPC %.4f  (spread %.4f)\n",
                static_cast<unsigned long long>(idx), pred,
                model.memberSpreadIndices(space, {idx})[0]);
    const auto lv = space.levels(idx);
    for (size_t p = 0; p < space.numParams(); ++p)
        std::printf("    %-16s %s\n", space.param(p).name.c_str(),
                    space.levelText(p, lv[p]).c_str());
}

int
run(int argc, char **argv)
{
    const Options opts = parse(argc, argv);
    if (opts.metrics.on)
        obs::setMetricsEnabled(true);

    if (opts.listApps) {
        for (const auto &name : workload::benchmarkNames())
            std::puts(name.c_str());
        return 0;
    }
    if (opts.describeSpace) {
        describeSpace(study::spaceFor(opts.kind));
        return 0;
    }

    study::StudyContext ctx(opts.kind, opts.app);
    std::printf("%s study, %s: %llu design points, %zu-instruction "
                "trace\n",
                study::studyName(opts.kind), opts.app.c_str(),
                static_cast<unsigned long long>(ctx.space().size()),
                ctx.trace().size());

    std::unique_ptr<ml::Ensemble> model;
    if (!opts.loadModel.empty()) {
        model = std::make_unique<ml::Ensemble>(
            ml::loadEnsemble(opts.loadModel));
        std::printf("loaded model from %s (stored estimate "
                    "%.2f%% +- %.2f%%)\n",
                    opts.loadModel.c_str(), model->estimate().meanPct,
                    model->estimate().sdPct);
    } else {
        ml::ExplorerOptions eopts;
        eopts.batchSize = opts.batch;
        eopts.targetMeanPct = opts.targetError;
        eopts.maxSimulations = opts.maxSims;
        eopts.activeLearning = opts.active;
        eopts.train.maxEpochs = opts.maxEpochs;

        // The dispatcher is the study's one simulation source: with no
        // endpoints it is the context's own pooled (detailed or
        // SimPoint) batch path.
        remote::DispatcherOptions dopts =
            remote::DispatcherOptions::fromEnv();
        if (!opts.workers.empty())
            dopts.endpoints = remote::parseEndpoints(opts.workers);
        dopts.simpoint = opts.simpoint;
        remote::RemoteDispatcher dispatcher(ctx, dopts);
        if (dispatcher.active()) {
            std::printf("remote: %zu simulation worker(s); failures "
                        "fall back to local simulation\n",
                        dopts.endpoints.size());
        }

        ml::Explorer explorer(
            ctx.space(),
            [&](const auto &batch) { return dispatcher.simulateBatch(batch); },
            eopts);
        for (const auto &step : explorer.run()) {
            std::printf("  %4zu sims: estimated error %.2f%% "
                        "+- %.2f%%\n",
                        step.totalSamples, step.estimate.meanPct,
                        step.estimate.sdPct);
        }
        model = std::make_unique<ml::Ensemble>(explorer.ensemble());
        std::printf("done: %zu simulations%s\n",
                    explorer.sampledIndices().size(),
                    opts.simpoint ? " (SimPoint estimates)" : "");
        if (dispatcher.active()) {
            const auto st = dispatcher.stats();
            std::printf("remote: %llu dispatched, %llu completed, "
                        "%llu retries, %llu redispatches, "
                        "%llu local fallbacks\n",
                        static_cast<unsigned long long>(st.dispatched),
                        static_cast<unsigned long long>(st.completed),
                        static_cast<unsigned long long>(st.retries),
                        static_cast<unsigned long long>(st.redispatches),
                        static_cast<unsigned long long>(st.fallbacks));
        }
    }

    if (!opts.saveModel.empty()) {
        ml::saveEnsemble(opts.saveModel, *model);
        std::printf("model saved to %s\n", opts.saveModel.c_str());
    }
    for (uint64_t idx : opts.predictIndices)
        printPoint(ctx, *model, idx);

    if (opts.metrics.on)
        obs::reportGlobalMetrics(opts.metrics.path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::main("dse_explore", kUsage, run, argc, argv);
}
