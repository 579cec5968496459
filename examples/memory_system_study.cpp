/**
 * @file
 * The paper's memory-system sensitivity study (Table 4.1) as a user
 * would run it: incrementally collect simulations of the 23,040-point
 * space for one application until the model's own error estimate
 * reaches a target, then use the model to answer the architect's
 * actual questions — here, the IPC cost of halving the L2 and the
 * best configuration under a "no 2 MB L2" constraint — without
 * running any further simulations.
 */

#include <cstdio>

#include "ml/explorer.hh"
#include "study/harness.hh"
#include "util/table.hh"

using namespace dse;

int
main()
{
    const char *app = "crafty";
    study::StudyContext ctx(study::StudyKind::MemorySystem, app);
    const auto &space = ctx.space();
    std::printf("memory-system study on %s: %llu design points\n", app,
                static_cast<unsigned long long>(space.size()));

    ml::ExplorerOptions opts;
    opts.batchSize = 50;           // the paper's batch size
    opts.targetMeanPct = 6.0;
    opts.maxSimulations = 500;
    opts.train.maxEpochs = 4000;

    ml::Explorer explorer(
        space,
        [&](const auto &batch) { return ctx.simulateBatch(batch); },
        opts);
    for (const auto &step : explorer.run()) {
        std::printf("  %3zu sims -> estimated error %.2f%%\n",
                    step.totalSamples, step.estimate.meanPct);
    }

    // Question 1: predicted IPC across the L2 size sweep with
    // everything else at a mid-range configuration.
    std::vector<int> mid(space.numParams());
    for (size_t p = 0; p < space.numParams(); ++p)
        mid[p] = space.param(p).numLevels() / 2;
    std::printf("\npredicted IPC vs L2 size (other parameters "
                "mid-range):\n");
    const size_t l2 = space.paramIndex("L2SizeKB");
    std::vector<uint64_t> sweep;
    for (int lv = 0; lv < space.param(l2).numLevels(); ++lv) {
        auto levels = mid;
        levels[l2] = lv;
        sweep.push_back(space.index(levels));
    }
    const auto sweep_ipc = ctx.simulateBatch(sweep);
    for (size_t lv = 0; lv < sweep.size(); ++lv) {
        std::printf("  L2 %4.0f KB: predicted %.3f (simulated %.3f)\n",
                    space.value(l2, static_cast<int>(lv)),
                    explorer.predictIndex(sweep[lv]), sweep_ipc[lv]);
    }

    // Question 2: best predicted configuration without a 2 MB L2.
    double best_ipc = -1.0;
    uint64_t best_idx = 0;
    for (uint64_t i = 0; i < space.size(); ++i) {
        const auto lv = space.levels(i);
        if (space.valueOf("L2SizeKB", lv) >= 2048)
            continue;
        const double pred = explorer.predictIndex(i);
        if (pred > best_ipc) {
            best_ipc = pred;
            best_idx = i;
        }
    }
    std::printf("\nbest predicted config without 2MB L2 "
                "(predicted %.3f, simulated %.3f):\n",
                best_ipc, ctx.simulateBatch({best_idx})[0]);
    const auto lv = space.levels(best_idx);
    for (size_t p = 0; p < space.numParams(); ++p) {
        if (space.param(p).kind == ml::ParamKind::Nominal) {
            std::printf("  %-16s %s\n", space.param(p).name.c_str(),
                        space.label(p, lv[p]).c_str());
        } else {
            std::printf("  %-16s %g\n", space.param(p).name.c_str(),
                        space.value(p, lv[p]));
        }
    }
    std::printf("\ntotal detailed simulations: %zu of %llu (%.1f%%)\n",
                ctx.simulationsRun(),
                static_cast<unsigned long long>(space.size()),
                100.0 * static_cast<double>(ctx.simulationsRun()) /
                    static_cast<double>(space.size()));
    return 0;
}
