/**
 * @file
 * ANN + SimPoint composition (Section 5.3): the training data itself
 * comes from partial simulation. SimPoint picks representative
 * intervals of the workload once; every training "simulation" then
 * runs only those intervals. The model still predicts *full-run* IPC
 * well — the two techniques' savings multiply.
 */

#include <cstdio>

#include "ml/cross_validation.hh"
#include "study/harness.hh"
#include "util/rng.hh"
#include "util/stats.hh"

using namespace dse;

int
main()
{
    const char *app = "mesa";
    study::StudyContext ctx(study::StudyKind::Processor, app);
    const auto &space = ctx.space();

    const auto &points = ctx.simPoints();
    std::printf("%s: SimPoint chose %d representative intervals of %zu "
                "instructions\n", app, points.k, points.intervalLength);
    std::printf("  detailed instructions per estimate: %zu of %zu "
                "(%.1fx fewer)\n",
                points.detailedInstructions(), ctx.trace().size(),
                static_cast<double>(ctx.trace().size()) /
                    static_cast<double>(points.detailedInstructions()));

    // Train on SimPoint estimates of a 1.5% sample.
    Rng rng(99);
    const size_t n = static_cast<size_t>(
        0.015 * static_cast<double>(space.size()));
    const auto sample = rng.sampleWithoutReplacement(space.size(), n);
    const auto estimates =
        ctx.simulateBatch(sample, study::Fidelity::SimPoint);
    ml::DataSet noisy;
    for (size_t i = 0; i < n; ++i)
        noisy.add(space.encodeIndex(sample[i]), estimates[i]);

    ml::TrainOptions train;
    train.maxEpochs = 5000;
    const auto model = ml::trainEnsemble(noisy, train);

    // Measure against FULL simulation on a holdout.
    const auto eval = study::holdoutIndices(space, sample, 300, 5);
    const auto err = study::measureTrueError(ctx, model, eval);
    std::printf("\ntrained on SimPoint estimates of %zu points:\n", n);
    std::printf("  cross-validation estimate: %.2f%% (vs the noisy "
                "targets)\n", model.estimate().meanPct);
    std::printf("  true error vs full simulation: %.2f%% +- %.2f%%\n",
                err.meanPct, err.sdPct);

    const double ann_x = static_cast<double>(space.size()) /
        static_cast<double>(n);
    const double sp_x = static_cast<double>(ctx.trace().size()) /
        static_cast<double>(points.detailedInstructions());
    std::printf("\ncombined reduction in simulated instructions: "
                "%.0fx (ANN) * %.1fx (SimPoint) = %.0fx\n",
                ann_x, sp_x, ann_x * sp_x);
    return 0;
}
