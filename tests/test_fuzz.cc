/**
 * @file
 * Randomized robustness tests: the simulator must complete and
 * conserve instructions on *any* valid study configuration and any
 * generated trace; the explorer/training stack must behave on
 * adversarial (constant, extreme-ratio) targets.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "ml/cross_validation.hh"
#include "sim/cacti.hh"
#include "study/harness.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "workload/generator.hh"

namespace dse {
namespace {

TEST(Fuzz, RandomMemoryStudyPointsAlwaysComplete)
{
    study::StudyContext ctx(study::StudyKind::MemorySystem, "twolf",
                            8192);
    Rng rng(0xfeed);
    std::vector<uint64_t> points;
    for (int i = 0; i < 40; ++i)
        points.push_back(rng.below(ctx.space().size()));
    const auto results = ctx.simulateFullBatch(points);
    for (size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(results[i].instructions, 8192u) << points[i];
        EXPECT_GT(results[i].ipc, 0.0) << points[i];
        EXPECT_LE(results[i].ipc, 8.0) << points[i];
    }
}

TEST(Fuzz, RandomProcessorStudyPointsAlwaysComplete)
{
    study::StudyContext ctx(study::StudyKind::Processor, "equake",
                            8192);
    Rng rng(0xbeef);
    std::vector<uint64_t> points;
    for (int i = 0; i < 40; ++i)
        points.push_back(rng.below(ctx.space().size()));
    const auto results = ctx.simulateFullBatch(points);
    for (size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(results[i].instructions, 8192u) << points[i];
        EXPECT_GT(results[i].ipc, 0.0) << points[i];
        EXPECT_LE(results[i].ipc, 8.0) << points[i];
    }
}

TEST(Fuzz, ExtremeCornersOfBothSpaces)
{
    for (auto kind : {study::StudyKind::MemorySystem,
                      study::StudyKind::Processor}) {
        study::StudyContext ctx(kind, "mcf", 8192);
        // First, last, and the all-max/all-min corners.
        const std::vector<uint64_t> corners = {
            0, ctx.space().size() - 1, ctx.space().size() / 2};
        for (const sim::SimResult &r : ctx.simulateFullBatch(corners))
            EXPECT_GT(r.ipc, 0.0);
    }
}

TEST(Fuzz, TrainingOnConstantTargetsSurvives)
{
    Rng rng(3);
    ml::DataSet data;
    for (int i = 0; i < 60; ++i)
        data.add({rng.uniform(), rng.uniform()}, 0.7);
    ml::TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 200;
    opts.esInterval = 25;
    opts.patience = 3;
    const auto model = ml::trainEnsemble(data, opts);
    EXPECT_NEAR(model.predict({0.5, 0.5}), 0.7, 0.1);
    EXPECT_LT(model.estimate().meanPct, 10.0);
}

TEST(Fuzz, TrainingOnExtremeTargetRatiosSurvives)
{
    // Targets spanning four orders of magnitude: the inverse-target
    // presentation weighting must not overflow or starve.
    Rng rng(5);
    ml::DataSet data;
    for (int i = 0; i < 80; ++i) {
        const double a = rng.uniform();
        data.add({a, rng.uniform()}, a < 0.5 ? 0.0005 : 5.0);
    }
    ml::TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 300;
    opts.esInterval = 25;
    opts.patience = 4;
    EXPECT_NO_THROW({
        const auto model = ml::trainEnsemble(data, opts);
        (void)model.predict({0.25, 0.5});
    });
}

TEST(Fuzz, SimulateBatchRandomSizesAndDuplicates)
{
    // Random batch sizes with heavy duplication, fed through the
    // parallel batch path: no crash, IPC matches the memoized scalar
    // path, and the cache holds exactly the distinct indices.
    util::ThreadPool::resetGlobal(4);
    study::StudyContext ctx(study::StudyKind::MemorySystem, "twolf",
                            4096);
    Rng rng(0xabcd);
    std::unordered_set<uint64_t> unique;
    for (int round = 0; round < 6; ++round) {
        const size_t n = 1 + rng.below(30);
        std::vector<uint64_t> batch;
        for (size_t i = 0; i < n; ++i) {
            // Draw from a small window to force duplicates within and
            // across rounds.
            batch.push_back(rng.below(200));
        }
        const auto ipcs = ctx.simulateBatch(batch);
        ASSERT_EQ(ipcs.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            EXPECT_GT(ipcs[i], 0.0);
            EXPECT_EQ(ipcs[i], ctx.simulateBatch({batch[i]})[0]);
            unique.insert(batch[i]);
        }
        EXPECT_EQ(ctx.simulationsRun(), unique.size());
    }
    EXPECT_TRUE(ctx.simulateBatch({}).empty());
    EXPECT_EQ(ctx.simulationsRun(), unique.size());
    util::ThreadPool::resetGlobal();
}

TEST(Fuzz, TinyTracesSimulateOnEveryBenchmark)
{
    sim::MachineConfig cfg;
    sim::CactiModel::applyLatencies(cfg);
    for (const auto &name : workload::benchmarkNames()) {
        const auto trace = workload::generateBenchmarkTrace(name, 512);
        sim::SimOptions opts;
        opts.warmCaches = true;
        const auto r = sim::simulate(trace, cfg, opts);
        EXPECT_EQ(r.instructions, 512u) << name;
    }
}

} // namespace
} // namespace dse
