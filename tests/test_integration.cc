/**
 * @file
 * Cross-module integration tests: the full paper pipeline at reduced
 * scale — sample a study's design space, simulate, train the
 * ensemble, and check prediction quality and error estimation; plus
 * the ANN+SimPoint composition and the explorer driving a real
 * simulator.
 */

#include <gtest/gtest.h>

#include "ml/explorer.hh"
#include "study/harness.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace dse {
namespace {

ml::TrainOptions
integrationTrainOptions()
{
    ml::TrainOptions opts;
    opts.maxEpochs = 3000;
    opts.esInterval = 50;
    opts.patience = 12;
    return opts;
}

/** One batch of simulations of @p indices as a training set. */
ml::DataSet
simulatedData(study::StudyContext &ctx, const std::vector<uint64_t> &indices,
              study::Fidelity fidelity = study::Fidelity::Detailed)
{
    const auto targets = ctx.simulateBatch(indices, fidelity);
    ml::DataSet data;
    for (size_t i = 0; i < indices.size(); ++i)
        data.add(ctx.space().encodeIndex(indices[i]), targets[i]);
    return data;
}

TEST(Integration, MemoryStudyModelBeatsMeanPredictor)
{
    study::StudyContext ctx(study::StudyKind::MemorySystem, "mesa",
                            16384);
    Rng rng(42);
    const auto train_idx =
        rng.sampleWithoutReplacement(ctx.space().size(), 300);
    const auto data = simulatedData(ctx, train_idx);

    const auto model = ml::trainEnsemble(data, integrationTrainOptions());
    const auto eval = study::holdoutIndices(ctx.space(), train_idx,
                                            150, 7);
    const auto err = study::measureTrueError(ctx, model, eval);

    // Mean-predictor baseline.
    const double y_mean = mean(data.y);
    double mean_err = 0.0;
    for (double truth : ctx.simulateBatch(eval))
        mean_err += percentageError(y_mean, truth);
    mean_err /= static_cast<double>(eval.size());

    EXPECT_LT(err.meanPct, mean_err * 0.6)
        << "model " << err.meanPct << "% vs mean " << mean_err << "%";
    EXPECT_LT(err.meanPct, 20.0);
}

TEST(Integration, ErrorEstimateTracksTruth)
{
    study::StudyContext ctx(study::StudyKind::Processor, "gzip", 16384);
    Rng rng(43);
    const auto train_idx =
        rng.sampleWithoutReplacement(ctx.space().size(), 300);
    const auto data = simulatedData(ctx, train_idx);

    const auto model = ml::trainEnsemble(data, integrationTrainOptions());
    const auto eval = study::holdoutIndices(ctx.space(), train_idx,
                                            150, 9);
    const auto err = study::measureTrueError(ctx, model, eval);

    // Cross-validation estimate within a factor of ~2 of truth even
    // at this deliberately tiny sample (the paper gets within 0.5%
    // at realistic samples).
    EXPECT_LT(model.estimate().meanPct, err.meanPct * 2.5);
    EXPECT_GT(model.estimate().meanPct, err.meanPct * 0.4);
}

TEST(Integration, ExplorerDrivesRealStudy)
{
    study::StudyContext ctx(study::StudyKind::MemorySystem, "crafty",
                            16384);
    ml::ExplorerOptions opts;
    opts.batchSize = 60;
    opts.maxSimulations = 240;
    opts.targetMeanPct = 0.0;  // run to the cap
    opts.train = integrationTrainOptions();
    opts.train.maxEpochs = 1500;

    ml::Explorer explorer(
        ctx.space(),
        [&](const auto &batch) { return ctx.simulateBatch(batch); },
        opts);
    const auto history = explorer.run();
    ASSERT_EQ(history.size(), 4u);
    // The estimate at 240 samples must beat the estimate at 60.
    EXPECT_LT(history.back().estimate.meanPct,
              history.front().estimate.meanPct);
}

TEST(Integration, AnnPlusSimPointStillLearns)
{
    study::StudyContext ctx(study::StudyKind::Processor, "gzip", 16384);
    Rng rng(44);
    const auto train_idx =
        rng.sampleWithoutReplacement(ctx.space().size(), 250);

    // Train on noisy SimPoint estimates...
    const auto noisy =
        simulatedData(ctx, train_idx, study::Fidelity::SimPoint);
    const auto model = ml::trainEnsemble(noisy, integrationTrainOptions());

    // ...and measure against the true (full-simulation) space.
    const auto eval = study::holdoutIndices(ctx.space(), train_idx,
                                            120, 11);
    const auto err = study::measureTrueError(ctx, model, eval);
    EXPECT_LT(err.meanPct, 30.0);
}

TEST(Integration, ModelRanksConfigurationsUsefully)
{
    // The practical use case: the model's predicted ordering of
    // configurations correlates strongly with the true ordering.
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            16384);
    Rng rng(45);
    const auto train_idx =
        rng.sampleWithoutReplacement(ctx.space().size(), 300);
    const auto data = simulatedData(ctx, train_idx);
    const auto model = ml::trainEnsemble(data, integrationTrainOptions());

    const auto eval = study::holdoutIndices(ctx.space(), train_idx,
                                            120, 13);
    const auto actual = ctx.simulateBatch(eval);
    std::vector<double> predicted;
    for (uint64_t idx : eval)
        predicted.push_back(model.predict(ctx.space().encodeIndex(idx)));
    EXPECT_GT(pearson(predicted, actual), 0.9);
}

} // namespace
} // namespace dse
