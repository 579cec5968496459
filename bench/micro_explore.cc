/**
 * @file
 * Microbenchmarks of the active-learning scoring path: per-round,
 * query-by-committee ranks a candidate pool by ensemble member
 * disagreement (Explorer::pickBatch), which at production pool sizes
 * is the last prediction-side hot path. BM_MemberSpreadScalar is the
 * pre-blocked per-point loop (heap-allocating encodeIndex + k scalar
 * member predictions); BM_MemberSpreadBatched is the panelized
 * Ensemble::memberSpreadIndices kernel, bit-identical per point.
 * BM_PickBatch times one end-to-end selection round (pool draw,
 * scoring, deterministic top-k), stamped by the batch simulator call.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "ml/cross_validation.hh"
#include "ml/explorer.hh"
#include "study/spaces.hh"
#include "tests/oracles.hh"
#include "util/rng.hh"

using namespace dse;

namespace {

/** Cheap analytic stand-in response over the memory-system space. */
double
analyticResponse(uint64_t idx)
{
    return 0.3 + 0.1 * std::sin(static_cast<double>(idx) * 1e-3) +
        1e-6 * static_cast<double>(idx % 97);
}

const ml::DesignSpace &
benchSpace()
{
    static const ml::DesignSpace space = study::memorySystemSpace();
    return space;
}

/** One paper-sized (10-fold) committee, trained once and shared. */
const ml::Ensemble &
benchEnsemble()
{
    static const ml::Ensemble model = [] {
        const auto &space = benchSpace();
        Rng rng(0xbe9c);
        const auto indices =
            rng.sampleWithoutReplacement(space.size(), 120);
        ml::DataSet data;
        for (uint64_t idx : indices)
            data.add(space.encodeIndex(idx), analyticResponse(idx));
        ml::TrainOptions opts;
        opts.maxEpochs = 60;
        opts.esInterval = 20;
        opts.patience = 3;
        return ml::trainEnsemble(data, opts);
    }();
    return model;
}

std::vector<uint64_t>
benchPool(size_t n)
{
    Rng rng(0x9001);
    return rng.sampleWithoutReplacement(benchSpace().size(), n);
}

void
BM_MemberSpreadScalar(benchmark::State &state)
{
    // The historical scoring loop, per candidate: heap-allocating
    // encodeIndex plus k predictScalar passes folded through
    // OnlineStats — what Explorer::pickBatch did per pool point
    // before the blocked kernel.
    const auto &space = benchSpace();
    const auto &model = benchEnsemble();
    const auto pool = benchPool(static_cast<size_t>(state.range(0)));
    std::vector<double> spread(pool.size());
    for (auto _ : state) {
        for (size_t i = 0; i < pool.size(); ++i)
            spread[i] = ml::memberSpread(model, space.encodeIndex(pool[i]));
        benchmark::DoNotOptimize(spread.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(pool.size()));
}

void
BM_MemberSpreadBatched(benchmark::State &state)
{
    // The blocked replacement: fixed-chunk panels, one transpose per
    // kBlock block reused by every member, per point bit-identical to
    // the scalar loop above.
    const auto &space = benchSpace();
    const auto &model = benchEnsemble();
    const auto pool = benchPool(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        auto spread = model.memberSpreadIndices(space, pool);
        benchmark::DoNotOptimize(spread.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(pool.size()));
}

void
BM_PickBatch(benchmark::State &state)
{
    // One end-to-end active-learning selection round at the given
    // candidate-pool size: pool draw, committee scoring, and the
    // deterministic top-k. Manual timing brackets exactly the
    // pickBatch span (step() entry to the batch simulator call, which
    // receives the chosen batch before any simulation); the
    // simulate/retrain tail of step() runs untimed.
    const auto &space = benchSpace();
    const auto &model = benchEnsemble();
    const size_t pool = static_cast<size_t>(state.range(0));
    for (auto _ : state) {
        ml::ExplorerOptions opts;
        opts.batchSize = 50;
        opts.candidatePool = pool;
        opts.activeLearning = true;
        opts.train.folds = 5;
        opts.train.maxEpochs = 20;
        opts.train.esInterval = 10;
        opts.train.patience = 2;
        double elapsed = 0.0;
        std::chrono::steady_clock::time_point start;
        const auto respond = ml::pointwise(analyticResponse);
        ml::Explorer ex(
            space,
            [&](const std::vector<uint64_t> &batch) {
                elapsed = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
                return respond(batch);
            },
            opts);
        ex.seedEnsemble(model);
        start = std::chrono::steady_clock::now();
        ex.step();
        state.SetIterationTime(elapsed);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(pool));
}

} // namespace

BENCHMARK(BM_MemberSpreadScalar)->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK(BM_MemberSpreadBatched)->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK(BM_PickBatch)->Arg(1024)->Arg(4096)->Arg(16384)->UseManualTime();

BENCHMARK_MAIN();
