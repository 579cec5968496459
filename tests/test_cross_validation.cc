/**
 * @file
 * Tests for k-fold cross-validation ensemble training: fold
 * mechanics, error estimation, ensemble behaviour, and the
 * architecture-specific training options of Section 3.3.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ml/cross_validation.hh"
#include "oracles.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace dse {
namespace ml {
namespace {

/** A learnable synthetic "design space": y = f(x) on [0,1]^3. */
DataSet
syntheticData(size_t n, uint64_t seed)
{
    Rng rng(seed);
    DataSet data;
    for (size_t i = 0; i < n; ++i) {
        const double a = rng.uniform(), b = rng.uniform(),
                     c = rng.uniform();
        const double y = 0.4 + 0.8 * a + 0.5 * b * c - 0.3 * a * b;
        data.add({a, b, c}, y);
    }
    return data;
}

TrainOptions
fastOptions()
{
    TrainOptions opts;
    opts.maxEpochs = 1500;
    opts.esInterval = 25;
    opts.patience = 10;
    opts.ann.learningRate = 0.4;
    opts.ann.decayEpochs = 500;
    return opts;
}

TEST(CrossValidation, EnsembleHasOneMemberPerFold)
{
    const auto data = syntheticData(100, 1);
    auto opts = fastOptions();
    opts.folds = 5;
    opts.maxEpochs = 50;
    const auto model = trainEnsemble(data, opts);
    EXPECT_EQ(model.members(), 5u);
}

TEST(CrossValidation, LearnsSmoothFunction)
{
    const auto data = syntheticData(300, 2);
    const auto model = trainEnsemble(data, fastOptions());

    const auto holdout = syntheticData(200, 99);
    double err = 0.0;
    for (size_t i = 0; i < holdout.size(); ++i)
        err += percentageError(model.predict(holdout.x[i]),
                               holdout.y[i]);
    EXPECT_LT(err / holdout.size(), 5.0);
}

TEST(CrossValidation, EstimateTracksTrueError)
{
    const auto data = syntheticData(300, 3);
    const auto model = trainEnsemble(data, fastOptions());

    const auto holdout = syntheticData(300, 77);
    std::vector<double> errs;
    for (size_t i = 0; i < holdout.size(); ++i)
        errs.push_back(percentageError(model.predict(holdout.x[i]),
                                       holdout.y[i]));
    const double true_mean = mean(errs);
    // Estimated and true mean within a couple of percentage points
    // (the paper finds <0.5% once sampling is dense; the synthetic
    // set here is small).
    EXPECT_NEAR(model.estimate().meanPct, true_mean,
                std::max(2.0, true_mean));
}

TEST(CrossValidation, EnsemblePredictionWithinMemberRange)
{
    const auto data = syntheticData(150, 4);
    auto opts = fastOptions();
    opts.maxEpochs = 300;
    const auto model = trainEnsemble(data, opts);
    const std::vector<double> x{0.3, 0.6, 0.2};
    double lo = 1e9, hi = -1e9;
    for (size_t m = 0; m < model.members(); ++m) {
        lo = std::min(lo, model.predictMember(m, x));
        hi = std::max(hi, model.predictMember(m, x));
    }
    const double p = model.predict(x);
    EXPECT_GE(p, lo - 1e-9);
    EXPECT_LE(p, hi + 1e-9);
}

TEST(CrossValidation, MemberSpreadNonNegative)
{
    const auto data = syntheticData(100, 5);
    auto opts = fastOptions();
    opts.maxEpochs = 200;
    const auto model = trainEnsemble(data, opts);
    EXPECT_GE(memberSpread(model, {0.5, 0.5, 0.5}), 0.0);
}

TEST(CrossValidation, DeterministicForSeed)
{
    const auto data = syntheticData(120, 6);
    auto opts = fastOptions();
    opts.maxEpochs = 200;
    const auto a = trainEnsemble(data, opts);
    const auto b = trainEnsemble(data, opts);
    EXPECT_DOUBLE_EQ(a.predict({0.1, 0.2, 0.3}),
                     b.predict({0.1, 0.2, 0.3}));
    EXPECT_DOUBLE_EQ(a.estimate().meanPct, b.estimate().meanPct);
}

TEST(CrossValidation, SeedChangesModel)
{
    const auto data = syntheticData(120, 6);
    auto opts = fastOptions();
    opts.maxEpochs = 200;
    auto opts2 = opts;
    opts2.seed = opts.seed + 1;
    const auto a = trainEnsemble(data, opts);
    const auto b = trainEnsemble(data, opts2);
    EXPECT_NE(a.predict({0.1, 0.2, 0.3}), b.predict({0.1, 0.2, 0.3}));
}

TEST(CrossValidation, RejectsTooFewPoints)
{
    const auto data = syntheticData(5, 7);
    TrainOptions opts;  // 10 folds
    EXPECT_THROW(trainEnsemble(data, opts), std::invalid_argument);
}

TEST(CrossValidation, RejectsSingleFold)
{
    const auto data = syntheticData(50, 7);
    TrainOptions opts;
    opts.folds = 1;
    EXPECT_THROW(trainEnsemble(data, opts), std::invalid_argument);
}

TEST(CrossValidation, MoreDataImprovesAccuracy)
{
    auto run = [](size_t n) {
        const auto data = syntheticData(n, 8);
        auto opts = fastOptions();
        const auto model = trainEnsemble(data, opts);
        const auto holdout = syntheticData(200, 55);
        double err = 0.0;
        for (size_t i = 0; i < holdout.size(); ++i)
            err += percentageError(model.predict(holdout.x[i]),
                                   holdout.y[i]);
        return err / holdout.size();
    };
    // Learning-curve property: 400 points beat 40 points.
    EXPECT_LT(run(400), run(40));
}

TEST(CrossValidation, WeightedPresentationFavoursSmallTargets)
{
    // Targets split into a small-value and a large-value cluster with
    // conflicting structure; weighting should fit the small cluster
    // relatively better than unweighted training does.
    Rng rng(9);
    DataSet data;
    for (int i = 0; i < 200; ++i) {
        const double a = rng.uniform();
        data.add({a, 1.0}, 0.05 + 0.02 * a);    // small targets
        data.add({a, 0.0}, 2.0 - 0.5 * a);      // large targets
    }
    auto weighted_opts = fastOptions();
    auto flat_opts = fastOptions();
    flat_opts.weightedPresentation = false;

    const auto weighted = trainEnsemble(data, weighted_opts);
    const auto flat = trainEnsemble(data, flat_opts);

    double werr = 0.0, ferr = 0.0;
    for (double a = 0.05; a < 1.0; a += 0.05) {
        const double target = 0.05 + 0.02 * a;
        werr += percentageError(weighted.predict({a, 1.0}), target);
        ferr += percentageError(flat.predict({a, 1.0}), target);
    }
    EXPECT_LT(werr, ferr);
}

TEST(CrossValidation, EarlyStoppingOffStillTrains)
{
    const auto data = syntheticData(100, 10);
    auto opts = fastOptions();
    opts.earlyStopping = false;
    opts.maxEpochs = 300;
    const auto model = trainEnsemble(data, opts);
    EXPECT_LT(model.estimate().meanPct, 50.0);
}

TEST(CrossValidation, EstimateFieldsPopulated)
{
    const auto data = syntheticData(100, 11);
    auto opts = fastOptions();
    opts.maxEpochs = 200;
    const auto model = trainEnsemble(data, opts);
    EXPECT_GE(model.estimate().meanPct, 0.0);
    EXPECT_GE(model.estimate().sdPct, 0.0);
}

/** Fold-count sweep: any reasonable k must work. */
class FoldCountTest : public ::testing::TestWithParam<int> {};

TEST_P(FoldCountTest, TrainsAndEstimates)
{
    const auto data = syntheticData(120, 12);
    auto opts = fastOptions();
    opts.folds = GetParam();
    opts.maxEpochs = 300;
    const auto model = trainEnsemble(data, opts);
    EXPECT_EQ(model.members(), static_cast<size_t>(GetParam()));
    EXPECT_LT(model.estimate().meanPct, 100.0);
}

INSTANTIATE_TEST_SUITE_P(Folds, FoldCountTest,
                         ::testing::Values(2, 5, 10, 20));

} // namespace
} // namespace ml
} // namespace dse
