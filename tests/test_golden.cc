/**
 * @file
 * Golden-value regression tests: a handful of (space, app, seed) →
 * result pins so refactors of the simulator, the training engine, or
 * the parallel scheduling cannot silently drift the reproduction.
 * Values were produced by this library at the revision that
 * introduced the parallel engine and have survived the flat-arena
 * kernel rewrite and the fused epoch-level training pipeline
 * unchanged — both were bit-exact refactors; a legitimate modelling
 * change that moves them must update the pins deliberately.
 */

#include <gtest/gtest.h>

#include "ml/cross_validation.hh"
#include "ml/explorer.hh"
#include "oracles.hh"
#include "study/harness.hh"
#include "util/rng.hh"

namespace dse {
namespace {

TEST(Golden, MemorySystemGzipIpc)
{
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            8192);
    EXPECT_NEAR(ctx.simulateBatch({100})[0], 0.29359902515948677, 1e-9);
}

TEST(Golden, MemorySystemMcfIpc)
{
    study::StudyContext ctx(study::StudyKind::MemorySystem, "mcf",
                            8192);
    EXPECT_NEAR(ctx.simulateBatch({12345})[0], 0.10456315016912375, 1e-9);
}

TEST(Golden, ProcessorEquakeIpc)
{
    study::StudyContext ctx(study::StudyKind::Processor, "equake",
                            8192);
    EXPECT_NEAR(ctx.simulateBatch({777})[0], 0.30537538209200032, 1e-9);
}

TEST(Golden, SmallEnsembleEstimate)
{
    // 60 random memory-system points for gzip, 5-fold ensemble with a
    // reduced budget; pins the cross-validation error estimate (and
    // with it the per-fold SplitMix64 seed derivation).
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            8192);
    Rng rng(42);
    const auto indices =
        rng.sampleWithoutReplacement(ctx.space().size(), 60);
    const auto ipc = ctx.simulateBatch(indices);

    ml::DataSet data;
    for (size_t i = 0; i < indices.size(); ++i)
        data.add(ctx.space().encodeIndex(indices[i]), ipc[i]);

    ml::TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 300;
    opts.esInterval = 25;
    opts.patience = 5;
    const auto model = ml::trainEnsemble(data, opts);
    EXPECT_NEAR(model.estimate().meanPct, 25.809202971370066, 1e-6);
    EXPECT_NEAR(model.estimate().sdPct, 22.809921024581772, 1e-6);
}

TEST(Golden, ActiveLearningPickBatchSelection)
{
    // Pins which design points one committee-scored round chooses to
    // simulate: round one samples randomly, round two ranks a
    // candidate pool by member spread and keeps the top batch under
    // the (spread desc, index asc) tie-break. Future kernel work on
    // the scoring path cannot silently change which points get
    // simulated without moving this pin deliberately.
    ml::DesignSpace space;
    space.addCardinal("a", {1, 2, 3, 4, 5, 6, 7, 8});
    space.addCardinal("b", {1, 2, 3, 4, 5, 6, 7, 8});
    space.addCardinal("c", {1, 2, 3, 4});
    space.addNominal("m", {"x", "y"});  // 512 points
    auto simulator = [&](uint64_t i) {
        const auto x = space.encodeIndex(i);
        return 0.5 + 0.4 * x[0] - 0.25 * x[1] * x[2] + 0.1 * x[3] +
            0.35 * x[0] * x[1] * (1.0 - x[2]);
    };
    ml::ExplorerOptions opts;
    opts.batchSize = 20;
    opts.candidatePool = 120;
    opts.activeLearning = true;
    opts.targetMeanPct = 0.0;
    opts.train.folds = 5;
    opts.train.maxEpochs = 150;
    opts.train.esInterval = 25;
    opts.train.patience = 4;
    ml::Explorer ex(space, ml::pointwise(simulator), opts);
    ex.step();
    ex.step();
    const auto &sampled = ex.sampledIndices();
    ASSERT_EQ(sampled.size(), 40u);
    const std::vector<uint64_t> round_two(sampled.begin() + 20,
                                          sampled.end());
    const std::vector<uint64_t> expected = {
        450, 392, 322, 457, 385, 465, 393, 338, 401, 208,
        63,  346, 504, 274, 409, 288, 144, 0,   119, 406};
    EXPECT_EQ(round_two, expected);
}

} // namespace
} // namespace dse
