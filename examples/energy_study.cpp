/**
 * @file
 * Energy-delay exploration: the predictive-modeling mechanism applied
 * to a metric other than IPC (Chapter 7: "our approach is
 * sufficiently general to predict other architectural statistics").
 * Trains one ensemble on energy-delay product over the processor
 * space and uses it to find efficient configurations — where the
 * best-EDP design differs from the best-IPC design.
 */

#include <algorithm>
#include <cstdio>

#include "ml/cross_validation.hh"
#include "sim/energy.hh"
#include "study/harness.hh"
#include "util/rng.hh"
#include "util/stats.hh"

using namespace dse;

int
main()
{
    const char *app = "mesa";
    study::StudyContext ctx(study::StudyKind::Processor, app);
    const auto &space = ctx.space();

    auto edp_of = [&](uint64_t idx, const sim::SimResult &r) {
        return sim::computeEnergy(ctx.config(idx), r).edp * 1e6;
    };

    // Train an EDP model from a 1.5% sample.
    Rng rng(21);
    const size_t n = static_cast<size_t>(
        0.015 * static_cast<double>(space.size()));
    const auto sample = rng.sampleWithoutReplacement(space.size(), n);
    // One batch call simulates the whole sample on the thread pool.
    const auto sims = ctx.simulateFullBatch(sample);
    ml::DataSet data;
    for (size_t i = 0; i < n; ++i)
        data.add(space.encodeIndex(sample[i]), edp_of(sample[i], sims[i]));

    ml::TrainOptions train;
    train.maxEpochs = 5000;
    const auto model = ml::trainEnsemble(data, train);
    std::printf("%s: EDP model from %zu sims, estimated error "
                "%.2f%%\n", app, n, model.estimate().meanPct);

    // Validate on a holdout.
    const auto eval = study::holdoutIndices(space, sample, 250, 9);
    const auto truths = ctx.simulateFullBatch(eval);
    std::vector<double> errs;
    for (size_t i = 0; i < eval.size(); ++i) {
        errs.push_back(percentageError(
            model.predict(space.encodeIndex(eval[i])),
            edp_of(eval[i], truths[i])));
    }
    std::printf("true EDP error on holdout: %.2f%% +- %.2f%%\n",
                mean(errs), stddev(errs));

    // Best predicted EDP vs best predicted IPC configuration.
    uint64_t best_edp_idx = 0;
    double best_edp = 1e300;
    for (uint64_t i = 0; i < space.size(); ++i) {
        const double pred = model.predict(space.encodeIndex(i));
        if (pred < best_edp) {
            best_edp = pred;
            best_edp_idx = i;
        }
    }
    const auto lv = space.levels(best_edp_idx);
    const auto &r = ctx.simulateFull(best_edp_idx);
    const auto energy = sim::computeEnergy(ctx.config(best_edp_idx), r);
    std::printf("\nbest predicted-EDP config (point %llu):\n",
                static_cast<unsigned long long>(best_edp_idx));
    std::printf("  width=%g freq=%gGHz rob=%g l1d=%gKB l2=%gKB\n",
                space.valueOf("Width", lv), space.valueOf("FreqGHz", lv),
                space.valueOf("ROBSize", lv),
                space.valueOf("L1DSizeKB", lv),
                space.valueOf("L2SizeKB", lv));
    std::printf("  simulated: IPC %.3f, energy %.1f uJ "
                "(core %.0f%%, caches %.0f%%, DRAM %.0f%%, leak %.0f%%)\n",
                r.ipc, energy.totalNj() / 1000.0,
                100.0 * energy.coreDynamicNj / energy.totalNj(),
                100.0 * energy.cacheDynamicNj / energy.totalNj(),
                100.0 * energy.dramDynamicNj / energy.totalNj(),
                100.0 * energy.leakageNj / energy.totalNj());
    std::printf("\nNote how the efficient design differs from the "
                "max-IPC design (examples/processor_study): the model "
                "mechanism is metric-agnostic.\n");
    return 0;
}
