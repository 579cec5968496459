/**
 * @file
 * Future-work extension bench (Chapter 7): **cross-application
 * modeling** — make the application identity a one-hot model input
 * and train one joint ensemble over several benchmarks. Where the
 * benchmarks share response structure, the joint model reaches a
 * given accuracy from fewer simulations *per application* than
 * separate models do.
 *
 * Also exercises the **SMARTS** systematic-sampling substrate named
 * in Chapter 2 as a companion to SimPoint, comparing the two partial-
 * simulation estimators' noise at matched instruction budgets.
 */

#include <cstdio>

#include "bench/common.hh"
#include "ml/crossapp.hh"
#include "simpoint/smarts.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

using namespace dse;
using namespace dse::bench;

namespace {

void
crossAppComparison(const std::vector<std::string> &apps,
                   size_t per_app, size_t eval_points,
                   size_t trace_length)
{
    std::printf("\n== joint vs per-app models (%zu sims per app) ==\n",
                per_app);
    // Shared space, shared sample indices.
    std::vector<std::unique_ptr<study::StudyContext>> ctxs;
    for (const auto &app : apps) {
        ctxs.push_back(std::make_unique<study::StudyContext>(
            study::StudyKind::Processor, app, trace_length));
    }
    const auto &space = ctxs.front()->space();
    ml::CrossAppSpace joint(space, apps);

    Rng rng(41);
    const auto train_idx =
        rng.sampleWithoutReplacement(space.size(), per_app);
    const auto eval = study::holdoutIndices(space, train_idx,
                                            eval_points, 43);

    // Simulate every app's sample and holdout, one batch each.
    std::vector<std::vector<double>> train_ipc, eval_ipc;
    for (const auto &ctx : ctxs) {
        train_ipc.push_back(ctx->simulateBatch(train_idx));
        eval_ipc.push_back(ctx->simulateBatch(eval));
    }

    // Joint model over all apps' samples.
    std::vector<ml::CrossAppSample> samples;
    for (size_t a = 0; a < apps.size(); ++a) {
        for (size_t i = 0; i < train_idx.size(); ++i)
            samples.push_back({a, train_idx[i], train_ipc[a][i]});
    }
    const auto joint_model =
        ml::trainCrossAppEnsemble(joint, samples, benchTrainOptions());

    Table t({"app", "per-app_model%", "joint_model%"});
    for (size_t a = 0; a < apps.size(); ++a) {
        // Per-app baseline on the same sample.
        ml::DataSet solo;
        for (size_t i = 0; i < train_idx.size(); ++i)
            solo.add(space.encodeIndex(train_idx[i]), train_ipc[a][i]);
        const auto solo_model =
            ml::trainEnsemble(solo, benchTrainOptions());

        std::vector<double> solo_err, joint_err;
        for (size_t i = 0; i < eval.size(); ++i) {
            const double truth = eval_ipc[a][i];
            solo_err.push_back(percentageError(
                solo_model.predict(space.encodeIndex(eval[i])), truth));
            joint_err.push_back(percentageError(
                joint_model.predict(joint.encode(a, eval[i])), truth));
        }
        t.newRow();
        t.add(apps[a]);
        t.add(mean(solo_err), 2);
        t.add(mean(joint_err), 2);
    }
    t.print(std::cout);
}

void
smartsVsSimPoint(const std::string &app, size_t trace_length)
{
    std::printf("\n== SMARTS vs SimPoint estimator noise (%s) ==\n",
                app.c_str());
    study::StudyContext ctx(study::StudyKind::Processor, app,
                            trace_length);
    // Match budgets: SMARTS cadence chosen so both simulate a similar
    // number of detailed instructions.
    const size_t sp_instr = ctx.simPointInstructionsPerEstimate();
    simpoint::SmartsOptions smarts;
    smarts.unitInstructions =
        std::max<size_t>(256, ctx.trace().size() / 64);
    smarts.cadence = std::max<size_t>(
        1, ctx.trace().size() / std::max<size_t>(1, sp_instr) / 2);

    Rng rng(47);
    std::vector<uint64_t> points;
    for (int i = 0; i < 12; ++i)
        points.push_back(rng.below(ctx.space().size()));
    const auto full = ctx.simulateBatch(points);
    const auto sp = ctx.simulateBatch(points, study::Fidelity::SimPoint);
    std::vector<simpoint::SmartsEstimate> sm(points.size());
    util::ThreadPool::global().parallelFor(0, points.size(), [&](size_t i) {
        sm[i] = simpoint::smartsEstimateIpc(ctx.trace(),
                                            ctx.config(points[i]), smarts);
    });
    std::vector<double> sp_err, sm_err;
    for (size_t i = 0; i < points.size(); ++i) {
        sp_err.push_back(percentageError(sp[i], full[i]));
        sm_err.push_back(percentageError(sm[i].ipc, full[i]));
    }
    const size_t sm_instr = sm.back().instructionsSimulated;
    Table t({"estimator", "detailed_instr", "mean_err%", "sd_err%"});
    t.newRow();
    t.add(std::string("SimPoint (calibrated)"));
    t.add(static_cast<long long>(sp_instr));
    t.add(mean(sp_err), 2);
    t.add(stddev(sp_err), 2);
    t.newRow();
    t.add(std::string("SMARTS (systematic)"));
    t.add(static_cast<long long>(sm_instr));
    t.add(mean(sm_err), 2);
    t.add(stddev(sm_err), 2);
    t.print(std::cout);
}

} // namespace

int
main()
{
    const auto scope = study::BenchScope::fromEnv({"gzip", "crafty"});
    std::printf("Extension: cross-application modeling and SMARTS "
                "sampling (Chapters 2 and 7)\n(apps: %s)\n",
                join(scope.apps, ",").c_str());
    crossAppComparison(scope.apps, 150,
                       std::min<size_t>(scope.evalPoints, 400),
                       scope.traceLength);
    smartsVsSimPoint(scope.apps.front(), scope.traceLength);
    return 0;
}
