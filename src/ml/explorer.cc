#include "ml/explorer.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/metrics.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace dse {
namespace ml {

namespace {

/** Exploration-stage metrics (DESIGN.md "Observability"). */
struct ExploreMetrics
{
    obs::CounterId rounds, pointsSimulated, pointsPredicted,
        pointsScored, scoreChunks;
    obs::HistogramId pickWallNs, simulateWallNs, trainWallNs,
        encodeWallNs, predictWallNs, scoreWallNs;

    static const ExploreMetrics &
    get()
    {
        static const ExploreMetrics m = [] {
            auto &r = obs::MetricsRegistry::global();
            ExploreMetrics e;
            e.rounds = r.counter("explore.rounds");
            e.pointsSimulated = r.counter("explore.points_simulated");
            e.pointsPredicted = r.counter("explore.points_predicted");
            e.pointsScored = r.counter("explore.points_scored");
            e.scoreChunks = r.counter("explore.score_chunks");
            e.pickWallNs = r.histogram("explore.pick_wall_ns");
            e.simulateWallNs = r.histogram("explore.simulate_wall_ns");
            e.trainWallNs = r.histogram("explore.train_wall_ns");
            e.encodeWallNs = r.histogram("explore.encode_wall_ns");
            e.predictWallNs = r.histogram("explore.predict_wall_ns");
            e.scoreWallNs = r.histogram("explore.score_wall_ns");
            return e;
        }();
        return m;
    }
};

} // namespace

Explorer::Explorer(const DesignSpace &space, BatchSimulatorFn simulator,
                   ExplorerOptions opts)
    : space_(space), simulator_(std::move(simulator)),
      opts_(std::move(opts)), rng_(opts_.seed)
{
    if (!simulator_)
        throw std::invalid_argument("explorer needs a simulator function");
    if (opts_.batchSize == 0)
        throw std::invalid_argument("batch size must be positive");
    seen_.assign(space_.size(), false);
    if (opts_.maxSimulations == 0)
        opts_.maxSimulations = space_.size();
}

std::vector<uint64_t>
Explorer::pickBatch(size_t n)
{
    const uint64_t space_size = space_.size();
    std::vector<uint64_t> batch;

    auto draw_unseen = [&](size_t want) {
        std::vector<uint64_t> out;
        // Rejection sampling is fine while the sampled fraction is
        // small (the regime this technique lives in); fall back to a
        // scan of the remainder otherwise.
        size_t attempts = 0;
        while (out.size() < want && attempts < want * 20) {
            const uint64_t idx = rng_.below(space_size);
            if (!seen_[idx]) {
                seen_[idx] = true;
                out.push_back(idx);
            }
            ++attempts;
        }
        if (out.size() < want) {
            for (uint64_t idx = 0; idx < space_size && out.size() < want;
                 ++idx) {
                if (!seen_[idx]) {
                    seen_[idx] = true;
                    out.push_back(idx);
                }
            }
        }
        return out;
    };

    if (!opts_.activeLearning || !ensemble_) {
        batch = draw_unseen(n);
    } else {
        // Query-by-committee: draw a candidate pool, rank by ensemble
        // member disagreement, keep the most uncertain points.
        std::vector<uint64_t> pool =
            draw_unseen(std::max(n, opts_.candidatePool));
        std::vector<double> spread;
        {
            const auto &em = ExploreMetrics::get();
            obs::TraceScope span("score", em.scoreWallNs);
            auto &registry = obs::MetricsRegistry::global();
            registry.add(em.pointsScored, pool.size());
            registry.add(em.scoreChunks,
                         (pool.size() + Ensemble::kScoreChunk - 1) /
                             Ensemble::kScoreChunk);
            // Blocked committee scoring: bit-identical per point at
            // any thread count.
            spread = ensemble_->memberSpreadIndices(space_, pool);
        }
        std::vector<std::pair<double, uint64_t>> scored(pool.size());
        for (size_t i = 0; i < pool.size(); ++i)
            scored[i] = {spread[i], pool[i]};
        // Deterministic top-n: spread descending with the candidate
        // index as tie-break, a strict total order (pool indices are
        // unique) — equal-spread candidates no longer land in
        // implementation-defined order. nth_element + a sort of the
        // kept prefix beats full-sorting the pool.
        const auto rank = [](const std::pair<double, uint64_t> &a,
                             const std::pair<double, uint64_t> &b) {
            if (a.first != b.first)
                return a.first > b.first;
            return a.second < b.second;
        };
        const size_t keep = std::min(n, scored.size());
        if (keep < scored.size())
            std::nth_element(scored.begin(),
                             scored.begin() + static_cast<ptrdiff_t>(keep),
                             scored.end(), rank);
        std::sort(scored.begin(),
                  scored.begin() + static_cast<ptrdiff_t>(keep), rank);
        for (size_t i = 0; i < scored.size(); ++i) {
            if (i < keep) {
                batch.push_back(scored[i].second);
            } else {
                seen_[scored[i].second] = false;  // return to the pool
            }
        }
    }
    return batch;
}

std::optional<ExplorationStep>
Explorer::step()
{
    const size_t budget_left = opts_.maxSimulations > indices_.size()
        ? opts_.maxSimulations - indices_.size() : 0;
    const size_t want = std::min(opts_.batchSize, budget_left);
    if (want == 0)
        return std::nullopt;

    const auto &em = ExploreMetrics::get();
    std::vector<uint64_t> batch;
    {
        obs::TraceScope span("pick", em.pickWallNs);
        batch = pickBatch(want);
    }
    if (batch.empty())
        return std::nullopt;

    // One simulator call per round: the simulator runs the whole batch
    // (on the pool, or across remote workers). On failure the picked
    // points return to the unseen pool and nothing was recorded yet,
    // so indices_ and data_ stay in step.
    std::vector<double> targets;
    {
        obs::TraceScope span("simulate", em.simulateWallNs);
        try {
            targets = simulator_(batch);
            if (targets.size() != batch.size()) {
                throw std::runtime_error(
                    "batch simulator returned " +
                    std::to_string(targets.size()) + " values for " +
                    std::to_string(batch.size()) + " points");
            }
        } catch (...) {
            for (uint64_t idx : batch)
                seen_[idx] = false;
            throw;
        }
    }

    auto &registry = obs::MetricsRegistry::global();
    registry.add(em.rounds);
    registry.add(em.pointsSimulated, batch.size());

    // One contiguous [batch x encodedWidth] buffer filled by
    // encodeIndexInto — no per-point heap allocation in the encode
    // span.
    const size_t width = static_cast<size_t>(space_.encodedWidth());
    std::vector<double> features(batch.size() * width);
    {
        obs::TraceScope span("encode", em.encodeWallNs);
        for (size_t i = 0; i < batch.size(); ++i)
            space_.encodeIndexInto(batch[i], features.data() + i * width);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
        indices_.push_back(batch[i]);
        const double *row = features.data() + i * width;
        data_.add(std::vector<double>(row, row + width), targets[i]);
    }

    TrainOptions train = opts_.train;
    // Vary the training seed with the data so successive rounds do
    // not reuse identical fold assignments on a prefix of the data.
    train.seed = opts_.train.seed + indices_.size();
    {
        obs::TraceScope span("train", em.trainWallNs);
        ensemble_ = std::make_unique<Ensemble>(trainEnsemble(data_, train));
    }

    ExplorationStep out;
    out.totalSamples = indices_.size();
    out.estimate = ensemble_->estimate();
    return out;
}

std::vector<ExplorationStep>
Explorer::run()
{
    std::vector<ExplorationStep> history;
    for (;;) {
        auto step_result = step();
        if (!step_result)
            break;
        history.push_back(*step_result);
        if (step_result->estimate.meanPct <= opts_.targetMeanPct)
            break;
    }
    return history;
}

const Ensemble &
Explorer::ensemble() const
{
    if (!ensemble_)
        throw std::logic_error("no ensemble trained yet; call step()");
    return *ensemble_;
}

void
Explorer::seedEnsemble(Ensemble model)
{
    ensemble_ = std::make_unique<Ensemble>(std::move(model));
}

double
Explorer::predictIndex(uint64_t index) const
{
    return ensemble().predict(space_.encodeIndex(index));
}

std::vector<double>
Explorer::predictIndices(const std::vector<uint64_t> &indices) const
{
    const auto &em = ExploreMetrics::get();
    obs::TraceScope span("predict", em.predictWallNs);
    obs::MetricsRegistry::global().add(em.pointsPredicted,
                                       indices.size());
    // Batched, parallel, and bit-identical to a predictIndex loop.
    return ensemble().predictIndices(space_, indices);
}

std::vector<double>
Explorer::predictRange(uint64_t first, size_t count) const
{
    const auto &em = ExploreMetrics::get();
    obs::TraceScope span("predict", em.predictWallNs);
    obs::MetricsRegistry::global().add(em.pointsPredicted, count);
    return ensemble().predictRange(space_, first, count);
}

std::vector<double>
Explorer::predictSpace() const
{
    // Streamed: no iota index vector — for the 2^31-point spaces this
    // library targets that materialization is pure page traffic.
    return predictRange(0, space_.size());
}

} // namespace ml
} // namespace dse
