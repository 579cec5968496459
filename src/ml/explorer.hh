/**
 * @file
 * Incremental design-space exploration (the procedure of Section 3.3):
 *
 *  1. sample N random unseen design points,
 *  2. simulate them,
 *  3. train a cross-validation ensemble on everything simulated so far,
 *  4. read the ensemble's error estimate,
 *  5. stop if the estimate is low enough, otherwise go to 1.
 *
 * The simulator is abstracted as a batch function from design-point
 * indices to target values, called once per round with the whole
 * batch, so the explorer is reusable for any metric, any simulator,
 * and any partial-simulation scheme (e.g. SimPoint estimates simply
 * make the function noisy), and the simulator decides how to run a
 * round: StudyContext::simulateBatch (at either fidelity) on the
 * thread pool, or RemoteDispatcher::simulateBatch across workers.
 */

#ifndef DSE_ML_EXPLORER_HH
#define DSE_ML_EXPLORER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ml/cross_validation.hh"
#include "ml/encoding.hh"

namespace dse {
namespace ml {

/**
 * Maps a round's design-point indices to their simulated target
 * values (e.g. IPC): one value per index, in input order.
 */
using BatchSimulatorFn =
    std::function<std::vector<double>(const std::vector<uint64_t> &)>;

/** Explorer configuration. */
struct ExplorerOptions
{
    /** Simulations added per refinement round. */
    size_t batchSize = 50;
    /** Stop when the estimated mean percentage error drops below. */
    double targetMeanPct = 2.0;
    /** Hard cap on total simulations (0 = space size). */
    size_t maxSimulations = 0;
    /** Ensemble training configuration. */
    TrainOptions train;
    /** Sampling seed (decoupled from the training seed). */
    uint64_t seed = 99;
    /**
     * Active learning (Chapter 7 extension): instead of random
     * sampling, rank a random candidate pool by ensemble disagreement
     * and simulate the most uncertain points.
     */
    bool activeLearning = false;
    /** Candidate pool size per batch when active learning is on. */
    size_t candidatePool = 500;
};

/** One refinement round's outcome. */
struct ExplorationStep
{
    size_t totalSamples = 0;
    ErrorEstimate estimate;
};

/**
 * Drives sample -> simulate -> train -> estimate rounds over a
 * DesignSpace and exposes the final predictive model.
 */
class Explorer
{
  public:
    Explorer(const DesignSpace &space, BatchSimulatorFn simulator,
             ExplorerOptions opts);

    /**
     * Add one batch: pick unseen points, simulate them with one
     * simulator call, retrain. If the simulator throws (or returns
     * the wrong number of values) the picked points go back to the
     * unseen pool and the sampled data is left unchanged, so a later
     * step() can retry.
     * @return the new error estimate, or nullopt when the space is
     *         exhausted
     */
    std::optional<ExplorationStep> step();

    /**
     * Run rounds until the estimated error reaches the target, the
     * simulation cap is hit, or the space is exhausted.
     * @return the full history of rounds
     */
    std::vector<ExplorationStep> run();

    /** The model trained on everything simulated so far. */
    const Ensemble &ensemble() const;

    /**
     * Inject a pre-trained ensemble (e.g. loaded via ml::io) before
     * the first step(), so an active-learning campaign can warm-start
     * its committee scoring instead of spending round one on random
     * sampling. step() replaces it with a freshly trained model as
     * usual.
     */
    void seedEnsemble(Ensemble model);

    /** Design points simulated so far. */
    const std::vector<uint64_t> &sampledIndices() const { return indices_; }

    /** Training data accumulated so far. */
    const DataSet &data() const { return data_; }

    /** Predict the target for any point in the space. */
    double predictIndex(uint64_t index) const;

    /**
     * Predict a set of points, evaluated in parallel chunks on the
     * global ThreadPool (results in input order, bit-identical to a
     * serial predictIndex loop at any thread count).
     */
    std::vector<double>
    predictIndices(const std::vector<uint64_t> &indices) const;

    /**
     * Streaming prediction of the consecutive index range
     * [first, first + count): bit-identical to predictIndices on the
     * equivalent iota vector, but without materializing an
     * 8-byte-per-point index vector — the form full-space sweeps use.
     */
    std::vector<double> predictRange(uint64_t first, size_t count) const;

    /** Predict every point of the design space (parallel chunks,
     *  streamed through predictRange). */
    std::vector<double> predictSpace() const;

  private:
    std::vector<uint64_t> pickBatch(size_t n);

    const DesignSpace &space_;
    BatchSimulatorFn simulator_;
    ExplorerOptions opts_;
    Rng rng_;
    DataSet data_;
    std::vector<uint64_t> indices_;
    std::vector<bool> seen_;
    std::unique_ptr<Ensemble> ensemble_;
};

} // namespace ml
} // namespace dse

#endif // DSE_ML_EXPLORER_HH
