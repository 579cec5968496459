/**
 * @file
 * Blocked committee-scoring suite: the batched member-spread kernels
 * (Ensemble::memberSpreadBatch / memberSpreadIndices), the
 * deterministic top-k selection in Explorer::pickBatch, and the
 * streaming Explorer::predictRange must all be bit-identical to
 * their scalar counterparts — per point, at any thread count, and
 * across dispatch topologies. The scalar ml::memberSpread in
 * oracles.hh is the reference throughout (a predictMember fold; its
 * member predictions are pinned to predictScalar by the parity suite).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ml/explorer.hh"
#include "oracles.hh"
#include "util/thread_pool.hh"

namespace dse {
namespace {

using util::ThreadPool;

constexpr size_t kThreadCounts[] = {1, 2, 8};

/** Restores the default global pool when a test scope ends. */
struct PoolGuard
{
    explicit PoolGuard(size_t threads) { ThreadPool::resetGlobal(threads); }
    ~PoolGuard() { ThreadPool::resetGlobal(); }
};

ml::DesignSpace
scoringSpace()
{
    ml::DesignSpace space;
    space.addCardinal("a", {1, 2, 3, 4, 5, 6, 7, 8});
    space.addCardinal("b", {1, 2, 3, 4, 5, 6, 7, 8});
    space.addCardinal("c", {1, 2, 3, 4});
    space.addNominal("m", {"x", "y"});
    return space;  // 512 points, 5 encoded inputs
}

double
scoringResponse(const ml::DesignSpace &space, uint64_t idx)
{
    const auto x = space.encodeIndex(idx);
    return 0.5 + 0.4 * x[0] - 0.25 * x[1] * x[2] + 0.1 * x[3] +
        0.35 * x[0] * x[1] * (1.0 - x[2]);
}

/** A small real ensemble over the scoring space (trained once). */
ml::Ensemble
trainScoringEnsemble(const ml::DesignSpace &space, int folds = 5)
{
    ml::DataSet data;
    Rng rng(0x5c0e);
    const auto indices = rng.sampleWithoutReplacement(space.size(), 80);
    for (uint64_t idx : indices)
        data.add(space.encodeIndex(idx), scoringResponse(space, idx));
    ml::TrainOptions opts;
    opts.folds = folds;
    opts.maxEpochs = 150;
    opts.esInterval = 25;
    opts.patience = 4;
    return ml::trainEnsemble(data, opts);
}

/**
 * An ensemble whose members are bitwise copies of one network: every
 * member prediction is identical, so memberSpread is exactly 0.0 at
 * every point — maximal ties for the selection tie-break tests.
 */
ml::Ensemble
constantSpreadEnsemble(const ml::DesignSpace &space, size_t members = 5)
{
    ml::AnnParams params;
    Rng rng(0xc0de);
    ml::Ann net(space.encodedWidth(), 1, params, rng);
    std::vector<ml::Ann> nets(members, net);
    return ml::Ensemble(std::move(nets), ml::TargetScaler{},
                        ml::ErrorEstimate{});
}

TEST(ExplorerScoring, MemberSpreadBatchMatchesScalarPerPoint)
{
    const auto space = scoringSpace();
    const auto model = trainScoringEnsemble(space);
    const size_t width = static_cast<size_t>(space.encodedWidth());
    // An awkward size on purpose: several full kBlock panels plus a
    // ragged tail, so both kernel shapes are exercised.
    const size_t n = 3 * 64 + 17;
    std::vector<double> x(n * width);
    for (size_t r = 0; r < n; ++r)
        space.encodeIndexInto(r % space.size(), x.data() + r * width);
    std::vector<double> batched(n);
    model.memberSpreadBatch(x.data(), n, batched.data());
    for (size_t r = 0; r < n; ++r) {
        const std::vector<double> row(x.begin() + r * width,
                                      x.begin() + (r + 1) * width);
        EXPECT_EQ(batched[r], ml::memberSpread(model, row)) << "point " << r;
    }
}

TEST(ExplorerScoring, MemberSpreadBatchMatchesScalarAcrossTopologies)
{
    // The blocked kernel must hold bit-identity on every dispatch
    // shape, not just the default 16-unit single-layer net: wide
    // layers take the cloned vector kernels, deep nets re-enter the
    // panel per layer, and multi-output nets score on output 0.
    const auto space = scoringSpace();
    const size_t width = static_cast<size_t>(space.encodedWidth());
    const size_t n = 2 * 64 + 5;
    std::vector<double> x(n * width);
    for (size_t r = 0; r < n; ++r)
        space.encodeIndexInto((r * 7) % space.size(),
                              x.data() + r * width);

    struct Shape
    {
        int hidden, layers, outputs;
    };
    const Shape shapes[] = {{16, 1, 1}, {32, 1, 1}, {7, 1, 1},
                            {16, 2, 1}, {16, 1, 4}};
    for (const auto &shape : shapes) {
        ml::AnnParams params;
        params.hiddenUnits = shape.hidden;
        params.hiddenLayers = shape.layers;
        std::vector<ml::Ann> nets;
        Rng rng(31 * static_cast<uint64_t>(shape.hidden) +
                static_cast<uint64_t>(shape.layers));
        for (int m = 0; m < 4; ++m)
            nets.emplace_back(space.encodedWidth(), shape.outputs,
                              params, rng);
        ml::Ensemble model(std::move(nets), ml::TargetScaler{},
                           ml::ErrorEstimate{});
        std::vector<double> batched(n);
        model.memberSpreadBatch(x.data(), n, batched.data());
        for (size_t r = 0; r < n; ++r) {
            const std::vector<double> row(x.begin() + r * width,
                                          x.begin() + (r + 1) * width);
            EXPECT_EQ(batched[r], ml::memberSpread(model, row))
                << "hidden=" << shape.hidden
                << " layers=" << shape.layers
                << " outputs=" << shape.outputs << " point " << r;
        }
    }
}

TEST(ParallelScoring, MemberSpreadIndicesBitIdenticalAcrossThreadCounts)
{
    const auto space = scoringSpace();
    const auto model = trainScoringEnsemble(space);

    // Candidate sets in both shapes the encoder distinguishes: a
    // scattered draw (per-point encodeIndexInto) and a consecutive
    // run (odometer encodeRangeInto).
    std::vector<std::vector<uint64_t>> candidate_sets;
    {
        Rng rng(0xca7);
        candidate_sets.push_back(
            rng.sampleWithoutReplacement(space.size(), 300));
        std::vector<uint64_t> run(300);
        std::iota(run.begin(), run.end(), 100);
        candidate_sets.push_back(std::move(run));
    }

    for (const auto &indices : candidate_sets) {
        // Serial per-point oracle: the scalar path, no pool involved.
        std::vector<double> oracle(indices.size());
        for (size_t i = 0; i < indices.size(); ++i)
            oracle[i] =
                ml::memberSpread(model, space.encodeIndex(indices[i]));

        for (size_t threads : kThreadCounts) {
            PoolGuard guard(threads);
            const auto got = model.memberSpreadIndices(space, indices);
            ASSERT_EQ(got.size(), oracle.size());
            for (size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i], oracle[i])
                    << "threads=" << threads << " index " << i;
        }
    }
}

TEST(ParallelScoring, PickBatchSelectionIdenticalAcrossThreadCounts)
{
    const auto space = scoringSpace();
    ml::ExplorerOptions opts;
    opts.batchSize = 25;
    opts.candidatePool = 150;
    opts.activeLearning = true;
    opts.targetMeanPct = 0.0;
    opts.train.folds = 5;
    opts.train.maxEpochs = 120;
    opts.train.esInterval = 25;
    opts.train.patience = 4;

    std::vector<std::vector<uint64_t>> sampled;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        ml::Explorer ex(space, ml::pointwise([&](uint64_t i) {
                            return scoringResponse(space, i);
                        }),
                        opts);
        // Three rounds: round one is random, rounds two and three go
        // through committee scoring and top-k selection.
        ex.step();
        ex.step();
        ex.step();
        sampled.push_back(ex.sampledIndices());
    }
    for (size_t t = 1; t < sampled.size(); ++t)
        EXPECT_EQ(sampled[t], sampled[0])
            << "threads=" << kThreadCounts[t];
}

TEST(ExplorerScoring, ConstantEnsembleTieBreakSelectsSmallestIndices)
{
    // Every candidate ties at spread exactly 0.0, so the (spread
    // desc, index asc) tie-break is the whole ordering: with the pool
    // covering the entire space, the selection must be the n smallest
    // indices, in ascending order — not whatever order the sort
    // implementation happens to leave equal keys in.
    const auto space = scoringSpace();
    ml::ExplorerOptions opts;
    opts.batchSize = 16;
    opts.candidatePool = 1000;  // > space size: pool = every point
    opts.activeLearning = true;
    opts.train.folds = 5;
    opts.train.maxEpochs = 20;
    opts.train.esInterval = 10;
    opts.train.patience = 2;
    ml::Explorer ex(space, ml::pointwise([](uint64_t i) {
                        return 1.0 + 0.1 * static_cast<double>(i % 5);
                    }),
                    opts);
    ex.seedEnsemble(constantSpreadEnsemble(space));
    ASSERT_TRUE(ex.step().has_value());

    std::vector<uint64_t> expected(16);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(ex.sampledIndices(), expected);
}

TEST(ExplorerScoring, SeededEnsembleScoresTheFirstBatch)
{
    // seedEnsemble warm-starts the committee: the very first batch is
    // already uncertainty-ranked rather than random, so two explorers
    // seeded with the same model pick the same first batch.
    const auto space = scoringSpace();
    const auto model = trainScoringEnsemble(space);
    ml::ExplorerOptions opts;
    opts.batchSize = 20;
    opts.candidatePool = 120;
    opts.activeLearning = true;
    opts.train.folds = 5;
    opts.train.maxEpochs = 20;
    opts.train.esInterval = 10;
    opts.train.patience = 2;
    auto first_batch = [&] {
        ml::Explorer ex(space, ml::pointwise([&](uint64_t i) {
                            return scoringResponse(space, i);
                        }),
                        opts);
        ex.seedEnsemble(model);
        ex.step();
        return ex.sampledIndices();
    };
    const auto a = first_batch();
    EXPECT_EQ(a.size(), 20u);
    EXPECT_EQ(a, first_batch());
}

TEST(ExplorerScoring, PredictRangeMatchesPredictIndices)
{
    const auto space = scoringSpace();
    ml::ExplorerOptions opts;
    opts.batchSize = 40;
    opts.train.folds = 5;
    opts.train.maxEpochs = 120;
    opts.train.esInterval = 25;
    opts.train.patience = 4;
    ml::Explorer ex(space, ml::pointwise([&](uint64_t i) {
                        return scoringResponse(space, i);
                    }),
                    opts);
    ASSERT_TRUE(ex.step().has_value());

    // An unaligned interior window, the full space, and an empty
    // range must all match the index-vector path bit for bit.
    struct Window
    {
        uint64_t first;
        size_t count;
    };
    const Window windows[] = {{37, 301}, {0, 512}, {511, 1}, {512, 0}};
    for (const auto &w : windows) {
        std::vector<uint64_t> indices(w.count);
        std::iota(indices.begin(), indices.end(), w.first);
        EXPECT_EQ(ex.predictRange(w.first, w.count),
                  ex.predictIndices(indices))
            << "first=" << w.first << " count=" << w.count;
    }
    EXPECT_EQ(ex.predictSpace(), ex.predictRange(0, space.size()));
    EXPECT_THROW(ex.predictRange(0, space.size() + 1),
                 std::out_of_range);
    EXPECT_THROW(ex.predictRange(space.size() + 1, 0),
                 std::out_of_range);
}

} // namespace
} // namespace dse
