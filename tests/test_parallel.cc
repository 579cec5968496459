/**
 * @file
 * Determinism suite for the parallel simulation & training engine.
 *
 * The contract under test (DESIGN.md, "Parallel execution &
 * determinism"): every parallel loop in the library — batch
 * simulation, per-fold ensemble training, design-space prediction,
 * holdout evaluation — produces results **bit-identical** to serial
 * execution at any thread count. Each case below computes the same
 * quantity with the global pool set to 1, 2, and 8 threads and
 * compares exactly (no tolerances), plus a stress test hammering the
 * sharded memoization cache from concurrent batches.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ml/ann.hh"
#include "ml/explorer.hh"
#include "ml/multitask.hh"
#include "oracles.hh"
#include "study/harness.hh"
#include "util/rng.hh"
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

void
expectEnsemblesIdentical(const ml::Ensemble &a, const ml::Ensemble &b,
                         const char *what)
{
    ASSERT_EQ(a.members(), b.members()) << what;
    for (size_t m = 0; m < a.members(); ++m)
        EXPECT_EQ(a.memberWeights(m), b.memberWeights(m))
            << what << ": member " << m;
    EXPECT_EQ(a.estimate().meanPct, b.estimate().meanPct) << what;
    EXPECT_EQ(a.estimate().sdPct, b.estimate().sdPct) << what;
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(8);
    std::vector<int> hits(5000, 0);
    pool.parallelFor(0, hits.size(),
                     [&](size_t i) { hits[i] += 1; });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << i;
}

TEST(ThreadPoolTest, ParallelMapPreservesOrder)
{
    ThreadPool pool(4);
    const auto out = pool.parallelMap<size_t>(
        257, [](size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(5, 5, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, PropagatesFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(0, 200,
                                  [](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must still be usable afterwards.
    std::atomic<size_t> n{0};
    pool.parallelFor(0, 64, [&](size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 64u);
}

TEST(ThreadPoolTest, NestedCallsRunInline)
{
    PoolGuard guard(4);
    std::vector<int> hits(40 * 40, 0);
    ThreadPool::global().parallelFor(0, 40, [&](size_t i) {
        // Nested parallelFor must not deadlock; it degrades to a
        // serial inner loop on the calling worker.
        ThreadPool::global().parallelFor(0, 40, [&](size_t j) {
            hits[i * 40 + j] += 1;
        });
    });
    for (int h : hits)
        ASSERT_EQ(h, 1);
}

TEST(ThreadPoolTest, ConfiguredThreadsReadsEnv)
{
    setenv("DSE_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::configuredThreads(), 3u);
    unsetenv("DSE_THREADS");
    EXPECT_GE(ThreadPool::configuredThreads(), 1u);
}

TEST(ThreadPoolTest, BenchScopeReadsThreads)
{
    setenv("DSE_THREADS", "5", 1);
    EXPECT_EQ(study::BenchScope::fromEnv({"mesa"}).threads, 5u);
    unsetenv("DSE_THREADS");
    EXPECT_GE(study::BenchScope::fromEnv({"mesa"}).threads, 1u);
}

TEST(ParallelDeterminism, SplitMixFoldSeedsAreStableAndDistinct)
{
    SplitMix64 a(12345), b(12345);
    std::set<uint64_t> seen;
    for (int i = 0; i < 64; ++i) {
        const uint64_t v = a.next();
        EXPECT_EQ(v, b.next());
        EXPECT_TRUE(seen.insert(v).second) << "seed collision at " << i;
    }
}

TEST(ParallelDeterminism, SimulateBatchBitIdenticalAcrossThreadCounts)
{
    // The same indices simulated at 1/2/8 threads must give the same
    // bits: simulation is a pure function of the design point, and
    // the sharded cache only memoizes.
    std::vector<uint64_t> indices;
    {
        Rng rng(0x5eed);
        study::StudyContext probe(study::StudyKind::MemorySystem,
                                  "gzip", 4096);
        for (int i = 0; i < 24; ++i)
            indices.push_back(rng.below(probe.space().size()));
    }

    std::vector<std::vector<double>> results;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                4096);
        results.push_back(ctx.simulateBatch(indices));
    }
    for (size_t t = 1; t < results.size(); ++t) {
        ASSERT_EQ(results[t].size(), results[0].size());
        for (size_t i = 0; i < results[0].size(); ++i)
            EXPECT_EQ(results[t][i], results[0][i])
                << "threads=" << kThreadCounts[t] << " index " << i;
    }
}

TEST(ParallelDeterminism, TrainEnsembleBitIdenticalAcrossThreadCounts)
{
    // Build a synthetic regression set once.
    Rng rng(21);
    ml::DataSet data;
    for (int i = 0; i < 100; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        data.add({a, b}, 0.5 + 0.9 * a - 0.4 * a * b);
    }
    ml::TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 150;
    opts.esInterval = 25;
    opts.patience = 4;

    std::vector<ml::Ensemble> models;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        models.push_back(ml::trainEnsemble(data, opts));
    }
    expectEnsemblesIdentical(models[0], models[1], "1 vs 2 threads");
    expectEnsemblesIdentical(models[0], models[2], "1 vs 8 threads");
    EXPECT_EQ(models[0].predict({0.3, 0.7}),
              models[2].predict({0.3, 0.7}));
}

TEST(ParallelDeterminism, TrainMultiTaskEnsembleBitIdenticalAcrossThreadCounts)
{
    // Multi-task folds train on the pool through the same fold loop
    // as trainEnsemble; every output must be identical at any width.
    Rng rng(22);
    ml::MultiTaskDataSet data;
    data.targetNames = {"ipc", "missRate"};
    for (int i = 0; i < 100; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        data.add({a, b}, {0.5 + 0.9 * a - 0.4 * a * b,
                          0.3 - 0.25 * a + 0.1 * b});
    }
    ml::TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 150;
    opts.esInterval = 25;
    opts.patience = 4;

    std::vector<ml::MultiTaskEnsemble> models;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        models.push_back(ml::trainMultiTaskEnsemble(data, opts));
    }
    for (size_t t = 1; t < models.size(); ++t) {
        EXPECT_EQ(models[t].members(), models[0].members());
        EXPECT_EQ(models[t].estimate().meanPct,
                  models[0].estimate().meanPct);
        EXPECT_EQ(models[t].estimate().sdPct, models[0].estimate().sdPct);
        for (const std::vector<double> &x :
             {std::vector<double>{0.3, 0.7}, std::vector<double>{0.9, 0.1}})
            EXPECT_EQ(models[t].predictAll(x), models[0].predictAll(x))
                << "threads=" << kThreadCounts[t];
    }
}

TEST(ParallelDeterminism, TrainEpochBitIdenticalToPerExampleAcrossThreadCounts)
{
    // The fused epoch pipeline under the pool: six networks trained
    // concurrently via trainEpoch (one per pool task, as trainEnsemble
    // trains folds) must match a serial per-example train() oracle
    // exactly, at every thread count. Exercises the fused
    // backward+update kernels' dispatch under concurrent execution.
    constexpr size_t kNets = 6;
    constexpr size_t kRows = 20;
    constexpr int kInputs = 8;
    constexpr int kEpochs = 3;

    std::vector<double> x(kRows * kInputs);
    std::vector<double> target(kRows);
    std::vector<uint32_t> order(kRows);
    {
        Rng rng(0xfa57);
        for (auto &v : x)
            v = rng.uniform();
        for (auto &v : target)
            v = rng.uniform();
        for (auto &o : order)
            o = static_cast<uint32_t>(rng.below(kRows));
    }

    auto make_net = [&](size_t m) {
        ml::AnnParams p;
        Rng rng(1000 + m);
        return ml::Ann(kInputs, 1, p, rng);
    };

    // Serial oracle: per-example train() calls, no pool involved.
    std::vector<std::vector<double>> expected;
    for (size_t m = 0; m < kNets; ++m) {
        ml::Ann net = make_net(m);
        for (int e = 0; e < kEpochs; ++e)
            for (uint32_t row : order)
                net.train(std::vector<double>(
                              x.begin() + row * kInputs,
                              x.begin() + (row + 1) * kInputs),
                          {target[row]});
        expected.push_back(net.weights());
    }

    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        std::vector<std::vector<double>> got(kNets);
        ThreadPool::global().parallelFor(0, kNets, [&](size_t m) {
            ml::Ann net = make_net(m);
            for (int e = 0; e < kEpochs; ++e)
                net.trainEpoch(x.data(), target.data(), order.data(),
                               order.size());
            got[m] = net.weights();
        });
        for (size_t m = 0; m < kNets; ++m)
            EXPECT_EQ(got[m], expected[m])
                << "threads=" << threads << " net " << m;
    }
}

TEST(ParallelDeterminism, ExplorerPredictionsBitIdenticalAcrossThreadCounts)
{
    ml::DesignSpace space;
    space.addCardinal("a", {1, 2, 3, 4, 5, 6});
    space.addCardinal("b", {1, 2, 3, 4, 5, 6});
    space.addCardinal("c", {1, 2, 3, 4, 5, 6});
    auto simulator = [&](uint64_t idx) {
        const auto x = space.encodeIndex(idx);
        return 0.8 + 0.6 * x[0] + 0.3 * x[1] * x[2];
    };

    ml::ExplorerOptions opts;
    opts.batchSize = 30;
    opts.train.folds = 5;
    opts.train.maxEpochs = 120;
    opts.train.esInterval = 25;
    opts.train.patience = 4;

    std::vector<std::vector<uint64_t>> sampled;
    std::vector<std::vector<double>> predictions;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        ml::Explorer explorer(space, ml::pointwise(simulator), opts);
        explorer.step();
        explorer.step();
        sampled.push_back(explorer.sampledIndices());
        predictions.push_back(explorer.predictSpace());
    }
    for (size_t t = 1; t < predictions.size(); ++t) {
        EXPECT_EQ(sampled[t], sampled[0])
            << "threads=" << kThreadCounts[t];
        ASSERT_EQ(predictions[t].size(), predictions[0].size());
        for (size_t i = 0; i < predictions[0].size(); ++i)
            EXPECT_EQ(predictions[t][i], predictions[0][i])
                << "threads=" << kThreadCounts[t] << " point " << i;
    }
}

TEST(ParallelDeterminism, MeasureTrueErrorBitIdenticalAcrossThreadCounts)
{
    // Train one tiny model, then evaluate the same holdout at each
    // thread count on a fresh (cold-cache) context.
    std::vector<uint64_t> train_idx;
    std::vector<uint64_t> eval_idx;
    ml::DataSet data;
    {
        PoolGuard guard(1);
        study::StudyContext ctx(study::StudyKind::Processor, "equake",
                                4096);
        Rng rng(77);
        train_idx = rng.sampleWithoutReplacement(ctx.space().size(), 40);
        eval_idx = study::holdoutIndices(ctx.space(), train_idx, 30, 78);
        const auto y = ctx.simulateBatch(train_idx);
        for (size_t i = 0; i < train_idx.size(); ++i)
            data.add(ctx.space().encodeIndex(train_idx[i]), y[i]);
    }
    ml::TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 120;
    opts.esInterval = 25;
    opts.patience = 4;
    const auto model = ml::trainEnsemble(data, opts);

    std::vector<study::TrueError> errors;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        study::StudyContext ctx(study::StudyKind::Processor, "equake",
                                4096);
        errors.push_back(study::measureTrueError(ctx, model, eval_idx));
    }
    for (size_t t = 1; t < errors.size(); ++t) {
        EXPECT_EQ(errors[t].meanPct, errors[0].meanPct)
            << "threads=" << kThreadCounts[t];
        EXPECT_EQ(errors[t].sdPct, errors[0].sdPct)
            << "threads=" << kThreadCounts[t];
    }
}

TEST(ParallelDeterminism, SimPointBatchBitIdenticalAcrossThreadCounts)
{
    std::vector<uint64_t> indices;
    {
        Rng rng(0x51);
        study::StudyContext probe(study::StudyKind::Processor, "gzip",
                                  16384);
        for (int i = 0; i < 10; ++i)
            indices.push_back(rng.below(probe.space().size()));
    }
    std::vector<std::vector<double>> results;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        study::StudyContext ctx(study::StudyKind::Processor, "gzip",
                                16384);
        results.push_back(
            ctx.simulateBatch(indices, study::Fidelity::SimPoint));
    }
    for (size_t t = 1; t < results.size(); ++t)
        EXPECT_EQ(results[t], results[0])
            << "threads=" << kThreadCounts[t];
}

TEST(ParallelStress, ConcurrentOverlappingBatchesShareTheCache)
{
    // Four threads hammer simulateBatch with overlapping index sets
    // while the global pool also runs 8 workers: every result must
    // match a serially computed reference, and the cache must hold
    // exactly the distinct indices.
    PoolGuard guard(8);

    std::vector<std::vector<uint64_t>> sets(4);
    std::set<uint64_t> unique;
    {
        Rng rng(0xca11);
        study::StudyContext probe(study::StudyKind::MemorySystem,
                                  "twolf", 4096);
        for (auto &set : sets) {
            for (int i = 0; i < 20; ++i) {
                // Small window so sets overlap heavily.
                const uint64_t idx = rng.below(60);
                set.push_back(idx);
                unique.insert(idx);
            }
        }
    }

    study::StudyContext ctx(study::StudyKind::MemorySystem, "twolf",
                            4096);
    std::vector<std::vector<double>> got(sets.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < sets.size(); ++t) {
        threads.emplace_back([&, t] {
            // Two rounds each: the second round is all cache hits.
            got[t] = ctx.simulateBatch(sets[t]);
            const auto again = ctx.simulateBatch(sets[t]);
            EXPECT_EQ(again, got[t]);
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(ctx.simulationsRun(), unique.size());

    study::StudyContext ref(study::StudyKind::MemorySystem, "twolf",
                            4096);
    for (size_t t = 0; t < sets.size(); ++t) {
        ASSERT_EQ(got[t].size(), sets[t].size());
        for (size_t i = 0; i < sets[t].size(); ++i)
            EXPECT_EQ(got[t][i], ref.simulateBatch({sets[t][i]})[0])
                << "set " << t << " index " << i;
    }
}

} // namespace
} // namespace dse
