/**
 * @file
 * The paper's processor study (Table 4.2) used for design ranking:
 * train a model from a ~1.5% sample, predict IPC for all 20,736
 * configurations, and check how well the model's top-10 list agrees
 * with detailed simulation — the "which design wins?" workflow that
 * motivates predictive design-space exploration.
 */

#include <algorithm>
#include <cstdio>

#include "ml/cross_validation.hh"
#include "study/harness.hh"
#include "util/rng.hh"
#include "util/stats.hh"

using namespace dse;

int
main()
{
    const char *app = "gzip";
    study::StudyContext ctx(study::StudyKind::Processor, app);
    const auto &space = ctx.space();
    std::printf("processor study on %s: %llu design points\n", app,
                static_cast<unsigned long long>(space.size()));

    // Simulate a ~1.5% random sample and train the ensemble.
    Rng rng(77);
    const size_t n = static_cast<size_t>(
        0.015 * static_cast<double>(space.size()));
    const auto sample = rng.sampleWithoutReplacement(space.size(), n);
    const auto sample_ipc = ctx.simulateBatch(sample);
    ml::DataSet data;
    for (size_t i = 0; i < n; ++i)
        data.add(space.encodeIndex(sample[i]), sample_ipc[i]);

    ml::TrainOptions train;
    train.maxEpochs = 5000;
    const auto model = ml::trainEnsemble(data, train);
    std::printf("trained on %zu simulations; estimated error "
                "%.2f%% +- %.2f%%\n",
                n, model.estimate().meanPct, model.estimate().sdPct);

    // Predict the whole space (fractions of a second) and rank.
    std::vector<std::pair<double, uint64_t>> ranked;
    ranked.reserve(space.size());
    for (uint64_t i = 0; i < space.size(); ++i)
        ranked.emplace_back(model.predict(space.encodeIndex(i)), i);
    std::sort(ranked.rbegin(), ranked.rend());

    // Verify the model's top 10 with one batch of detailed simulations.
    std::vector<uint64_t> top;
    for (size_t r = 0; r < 10; ++r)
        top.push_back(ranked[r].second);
    const auto top_ipc = ctx.simulateBatch(top);

    std::printf("\nmodel's top-10 configurations vs detailed "
                "simulation:\n");
    std::printf("%-6s %-10s %-10s %s\n", "rank", "predicted",
                "simulated", "config");
    for (size_t r = 0; r < 10; ++r) {
        const auto [pred, idx] = ranked[r];
        const auto lv = space.levels(idx);
        std::printf("%-6zu %-10.3f %-10.3f width=%g freq=%gGHz rob=%g "
                    "l1d=%gKB l2=%gKB\n",
                    r + 1, pred, top_ipc[r],
                    space.valueOf("Width", lv),
                    space.valueOf("FreqGHz", lv),
                    space.valueOf("ROBSize", lv),
                    space.valueOf("L1DSizeKB", lv),
                    space.valueOf("L2SizeKB", lv));
    }

    // How good is the model's #1 relative to the true best among the
    // top-10 predictions (the architect would simulate those few)?
    const double best_sim =
        *std::max_element(top_ipc.begin(), top_ipc.end());
    std::printf("\nbest simulated IPC among model's top-10: %.3f\n",
                best_sim);
    std::printf("simulations spent: %zu (sample) + 10 (verification) "
                "of %llu total\n",
                n, static_cast<unsigned long long>(space.size()));
    return 0;
}
