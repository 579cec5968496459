/**
 * @file
 * Quickstart: the library in ~40 effective lines.
 *
 * 1. Describe a design space (here: a small slice of the paper's
 *    memory-system space).
 * 2. Provide a "simulator" — any function from a batch of
 *    design-point indices to one metric value each. Here it is the
 *    bundled cycle-level simulator running the synthetic gzip
 *    workload, one batch point per thread-pool task.
 * 3. Let the Explorer sample, simulate, and train until its
 *    cross-validation error estimate is low enough.
 * 4. Predict any point in the space without simulating it.
 */

#include <cstdio>

#include "ml/explorer.hh"
#include "sim/cacti.hh"
#include "sim/core.hh"
#include "util/thread_pool.hh"
#include "workload/generator.hh"

using namespace dse;

int
main()
{
    // 1. A 3-parameter design space: 4 * 4 * 2 = 32 points... too
    // tiny to show off; use L1/L2/bus: 4 * 4 * 3 = 48 points so the
    // quickstart finishes in seconds.
    ml::DesignSpace space;
    space.addCardinal("L1SizeKB", {8, 16, 32, 64});
    space.addCardinal("L2SizeKB", {256, 512, 1024, 2048});
    space.addCardinal("L2BusB", {8, 16, 32});

    // 2. Wire design points to the simulator.
    const auto trace = workload::generateBenchmarkTrace("gzip", 16384);
    auto simulate_point = [&](uint64_t index) {
        const auto lv = space.levels(index);
        sim::MachineConfig cfg;
        cfg.l1d.sizeKB = static_cast<int>(space.value(0, lv[0]));
        cfg.l2.sizeKB = static_cast<int>(space.value(1, lv[1]));
        cfg.l2BusBytes = static_cast<int>(space.value(2, lv[2]));
        sim::CactiModel::applyLatencies(cfg);
        sim::SimOptions opts;
        opts.warmCaches = true;
        return sim::simulate(trace, cfg, opts).ipc;
    };
    auto simulate_batch = [&](const std::vector<uint64_t> &batch) {
        return util::ThreadPool::global().parallelMap<double>(
            batch.size(), [&](size_t i) { return simulate_point(batch[i]); });
    };

    // 3. Explore: batches of 8 simulations until the estimated mean
    // percentage error drops below 3%.
    ml::ExplorerOptions opts;
    opts.batchSize = 8;
    opts.targetMeanPct = 3.0;
    opts.train.folds = 5;
    opts.train.maxEpochs = 3000;

    ml::Explorer explorer(space, simulate_batch, opts);
    for (const auto &step : explorer.run()) {
        std::printf("after %3zu simulations: estimated error "
                    "%.2f%% +- %.2f%%\n",
                    step.totalSamples, step.estimate.meanPct,
                    step.estimate.sdPct);
    }

    // 4. Predict everywhere; verify a few points in one batch.
    const std::vector<uint64_t> check = {0, 20, 47};
    const auto simulated = simulate_batch(check);
    for (size_t i = 0; i < check.size(); ++i) {
        std::printf("point %2llu: predicted IPC %.3f, simulated %.3f\n",
                    static_cast<unsigned long long>(check[i]),
                    explorer.predictIndex(check[i]), simulated[i]);
    }
    std::printf("\nsimulated %zu of %llu points (%.0f%%)\n",
                explorer.sampledIndices().size(),
                static_cast<unsigned long long>(space.size()),
                100.0 * static_cast<double>(
                    explorer.sampledIndices().size()) /
                    static_cast<double>(space.size()));
    return 0;
}
