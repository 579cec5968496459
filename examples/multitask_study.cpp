/**
 * @file
 * Multi-task learning extension (Chapter 7): one ensemble with
 * several output units predicts IPC *and* the correlated secondary
 * metrics a simulator reports (L1D/L2 miss rates, branch
 * misprediction rate) for unsimulated configurations. The secondary
 * metrics cannot be inputs — they are unknown before simulation —
 * but sharing the hidden layer lets their structure inform the IPC
 * prediction.
 */

#include <cstdio>

#include "ml/multitask.hh"
#include "study/harness.hh"
#include "util/rng.hh"
#include "util/stats.hh"

using namespace dse;

int
main()
{
    const char *app = "twolf";
    study::StudyContext ctx(study::StudyKind::MemorySystem, app);
    const auto &space = ctx.space();

    Rng rng(55);
    const size_t n = static_cast<size_t>(
        0.02 * static_cast<double>(space.size()));
    const auto sample = rng.sampleWithoutReplacement(space.size(), n);

    ml::MultiTaskDataSet data;
    data.targetNames = {"IPC", "L1D miss rate", "L2 miss rate",
                        "BP misprediction rate"};
    // One batch call simulates the whole sample on the thread pool.
    const auto sims = ctx.simulateFullBatch(sample);
    for (size_t i = 0; i < n; ++i) {
        const auto &r = sims[i];
        data.add(space.encodeIndex(sample[i]),
                 {r.ipc, r.l1dMissRate, r.l2MissRate,
                  r.branchMispredictRate});
    }

    ml::TrainOptions train;
    train.maxEpochs = 5000;
    const auto model = ml::trainMultiTaskEnsemble(data, train);
    std::printf("%s (memory-system): multi-task ensemble on %zu "
                "simulations, primary estimate %.2f%%\n",
                app, n, model.estimate().meanPct);

    // Evaluate all four heads on a holdout.
    const auto eval = study::holdoutIndices(space, sample, 250, 3);
    const auto truths = ctx.simulateFullBatch(eval);
    std::vector<std::vector<double>> errs(data.targets());
    for (size_t i = 0; i < eval.size(); ++i) {
        const auto &r = truths[i];
        const double truth[] = {r.ipc, r.l1dMissRate, r.l2MissRate,
                                r.branchMispredictRate};
        const auto pred = model.predictAll(space.encodeIndex(eval[i]));
        for (size_t t = 0; t < data.targets(); ++t)
            errs[t].push_back(percentageError(pred[t], truth[t]));
    }
    std::printf("\nper-metric true error on a %zu-point holdout:\n",
                eval.size());
    for (size_t t = 0; t < data.targets(); ++t) {
        std::printf("  %-24s %.2f%% +- %.2f%%\n",
                    data.targetNames[t].c_str(), mean(errs[t]),
                    stddev(errs[t]));
    }

    // Show one prediction in full.
    const uint64_t probe = eval.front();
    const auto pred = model.predictAll(space.encodeIndex(probe));
    const auto &r = truths.front();
    std::printf("\nexample point %llu:\n",
                static_cast<unsigned long long>(probe));
    std::printf("  IPC        predicted %.3f  simulated %.3f\n",
                pred[0], r.ipc);
    std::printf("  L1D miss   predicted %.3f  simulated %.3f\n",
                pred[1], r.l1dMissRate);
    std::printf("  L2 miss    predicted %.3f  simulated %.3f\n",
                pred[2], r.l2MissRate);
    std::printf("  BP mispred predicted %.3f  simulated %.3f\n",
                pred[3], r.branchMispredictRate);
    return 0;
}
