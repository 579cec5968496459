/**
 * @file
 * Shared machinery for the paper-reproduction benchmark harnesses:
 * learning-curve sweeps (incremental training sets, fixed holdout),
 * default training budgets, and simulated-instruction accounting for
 * the reduction-factor figures.
 *
 * Scope knobs (environment): DSE_APPS, DSE_EVAL_POINTS,
 * DSE_FULL_SPACE, DSE_TRACE_LEN, DSE_MAX_SAMPLE_PCT, DSE_BATCH
 * (study::BenchScope), plus DSE_MAX_EPOCHS for the training budget
 * and DSE_THREADS for the worker pool that batch simulation, fold
 * training, and holdout evaluation fan out on.
 */

#ifndef DSE_BENCH_COMMON_HH
#define DSE_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "ml/cross_validation.hh"
#include "study/harness.hh"
#include "util/env.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace dse {
namespace bench {

/** Threads the global pool runs loops on (DSE_THREADS / hardware). */
inline size_t
effectiveThreads()
{
    return util::ThreadPool::global().threadCount();
}

/** One point of a learning curve. */
struct CurvePoint
{
    size_t samples = 0;
    double samplePct = 0.0;
    ml::ErrorEstimate estimated;   ///< cross-validation estimate
    study::TrueError truth;        ///< measured on the holdout
};

/** Training budget for benchmark runs (reduced wall clock). */
inline ml::TrainOptions
benchTrainOptions()
{
    ml::TrainOptions opts;
    opts.maxEpochs = static_cast<int>(envInt("DSE_MAX_EPOCHS", 5000));
    opts.esInterval = 25;
    opts.patience = 20;
    return opts;
}

/**
 * Training-set sizes for a learning curve: `batch` up to
 * `max_pct` percent of the space, in a handful of increments
 * (the paper uses 50-instruction increments; the default here is
 * coarser to fit a laptop-scale run — tighten with DSE_BATCH).
 */
inline std::vector<size_t>
curveSizes(uint64_t space_size, double max_pct, size_t batch)
{
    const size_t cap = static_cast<size_t>(
        max_pct / 100.0 * static_cast<double>(space_size));
    std::vector<size_t> sizes;
    // Geometric-ish ramp: dense early where the curve moves fastest.
    for (size_t n = batch; n < cap; n = n * 3 / 2 + batch)
        sizes.push_back(n);
    // Top up with the exact cap unless the ramp already landed there
    // (within one batch).
    if (sizes.empty() || sizes.back() + batch / 2 < cap)
        sizes.push_back(cap);
    return sizes;
}

/**
 * Sweep a learning curve on one (study, app) context.
 *
 * Training sets grow incrementally (size i is a prefix of size i+1,
 * as in the paper's batched collection); the holdout is fixed and
 * disjoint from every training set.
 *
 * @param simpoint train on SimPoint estimates instead of full
 *        simulations (true error is still measured against full
 *        simulation, Section 5.3)
 */
inline std::vector<CurvePoint>
learningCurve(study::StudyContext &ctx, const std::vector<size_t> &sizes,
              size_t eval_points, bool simpoint = false,
              ml::TrainOptions train = benchTrainOptions(),
              uint64_t seed = 2024)
{
    Rng rng(seed);
    const size_t max_n = sizes.back();
    const auto order =
        rng.sampleWithoutReplacement(ctx.space().size(), max_n);
    const auto eval = study::holdoutIndices(ctx.space(), order,
                                            eval_points, seed + 1);

    // Run every training-set simulation up front as one parallel
    // batch; the incremental loop below adds its values in order (the
    // holdout is batched inside measureTrueError).
    const auto targets = ctx.simulateBatch(
        order, simpoint ? study::Fidelity::SimPoint
                        : study::Fidelity::Detailed);

    std::vector<CurvePoint> curve;
    ml::DataSet data;
    size_t filled = 0;
    for (size_t n : sizes) {
        for (; filled < n; ++filled)
            data.add(ctx.space().encodeIndex(order[filled]), targets[filled]);
        ml::TrainOptions opts = train;
        opts.seed = train.seed + n;
        const auto model = ml::trainEnsemble(data, opts);

        CurvePoint point;
        point.samples = n;
        point.samplePct = 100.0 * static_cast<double>(n) /
            static_cast<double>(ctx.space().size());
        point.estimated = model.estimate();
        point.truth = study::measureTrueError(ctx, model, eval);
        curve.push_back(point);
        std::fprintf(stderr,
                     "  [%s/%s%s] n=%zu (%.2f%%) est=%.2f%% true=%.2f%%\n",
                     ctx.app().c_str(), study::studyName(ctx.kind()),
                     simpoint ? "+SimPoint" : "", n, point.samplePct,
                     point.estimated.meanPct, point.truth.meanPct);
    }
    return curve;
}

/** Smallest sample size on a curve whose true error is <= target. */
inline const CurvePoint *
firstReaching(const std::vector<CurvePoint> &curve, double target_pct)
{
    for (const auto &p : curve) {
        if (p.truth.meanPct <= target_pct)
            return &p;
    }
    return nullptr;
}

/** Print a curve as an aligned table (and CSV when DSE_CSV=1). */
inline void
printCurve(const std::string &title, const std::vector<CurvePoint> &curve)
{
    if (obs::metricsEnabled()) {
        // Annotate the curve header with the simulation-cache story
        // so a bench log records how much work was memoized away.
        const auto snap = obs::MetricsRegistry::global().snapshot();
        std::printf("\n== %s (threads=%zu sim.executed=%llu "
                    "sim.memo_hits=%llu) ==\n",
                    title.c_str(), effectiveThreads(),
                    static_cast<unsigned long long>(
                        snap.counter("sim.executed")),
                    static_cast<unsigned long long>(
                        snap.counter("sim.memo_hits")));
    } else {
        std::printf("\n== %s (threads=%zu) ==\n", title.c_str(),
                    effectiveThreads());
    }
    Table t({"samples", "sample%", "est_mean%", "est_sd%", "true_mean%",
             "true_sd%"});
    for (const auto &p : curve) {
        t.newRow();
        t.add(static_cast<long long>(p.samples));
        t.add(p.samplePct, 2);
        t.add(p.estimated.meanPct, 2);
        t.add(p.estimated.sdPct, 2);
        t.add(p.truth.meanPct, 2);
        t.add(p.truth.sdPct, 2);
    }
    std::ostream &os = std::cout;
    if (envBool("DSE_CSV", false))
        t.printCsv(os);
    else
        t.print(os);
}

} // namespace bench
} // namespace dse

#endif // DSE_BENCH_COMMON_HH
