/**
 * @file
 * Active-learning extension (Chapter 7): instead of random sampling,
 * let the committee (the cross-validation ensemble) choose which
 * configurations to simulate next — the points where its members
 * disagree most. This example runs both strategies side by side on
 * the processor study and reports error per simulation budget.
 */

#include <cstdio>

#include "ml/explorer.hh"
#include "study/harness.hh"

using namespace dse;

namespace {

void
runStrategy(study::StudyKind kind, const char *app, bool active)
{
    study::StudyContext ctx(kind, app);
    ml::ExplorerOptions opts;
    opts.batchSize = 50;
    opts.maxSimulations = 200;
    opts.targetMeanPct = 0.0;
    opts.activeLearning = active;
    opts.candidatePool = 400;
    opts.train.maxEpochs = 4000;

    ml::Explorer explorer(
        ctx.space(),
        [&](const auto &batch) { return ctx.simulateBatch(batch); },
        opts);

    std::printf("\n%s sampling:\n",
                active ? "active (query-by-committee)" : "random");
    for (const auto &step : explorer.run()) {
        // Measure the true error as the rounds progress.
        const auto eval = study::holdoutIndices(
            ctx.space(), explorer.sampledIndices(), 250, 13);
        const auto err =
            study::measureTrueError(ctx, explorer.ensemble(), eval);
        std::printf("  %3zu sims: estimated %.2f%%  true %.2f%%\n",
                    step.totalSamples, step.estimate.meanPct,
                    err.meanPct);
    }
}

} // namespace

int
main()
{
    const char *app = "gzip";
    std::printf("active learning vs random sampling "
                "(processor study, %s)\n", app);
    runStrategy(study::StudyKind::Processor, app, false);
    runStrategy(study::StudyKind::Processor, app, true);
    std::printf("\nActive learning spends its budget on the regions "
                "the committee is unsure about; gains grow with the "
                "roughness of the response surface (Chapter 7).\n");
    return 0;
}
