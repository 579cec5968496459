/**
 * @file
 * Multi-task learning extension (Chapter 7, "Conclusions and Future
 * Work").
 *
 * Simulators report several statistics besides the main metric (cache
 * miss rates, branch misprediction rates, ...). These correlate with
 * IPC but cannot be model *inputs* — they are unknown for unsimulated
 * points. Multi-task learning exploits the correlations anyway: one
 * network with several outputs is trained to predict all metrics at
 * once, sharing its hidden layer. The shared representation acts as
 * an inductive bias that can improve the main metric's accuracy in
 * the sparse-sampling regime.
 *
 * Training is not a second procedure: trainMultiTaskEnsemble runs the
 * same fold loop as trainEnsemble (detail::trainFolds) with one output
 * unit per target, so multi-task folds also train concurrently, retry
 * on divergence, and widen the estimate when a fold is dropped.
 */

#ifndef DSE_ML_MULTITASK_HH
#define DSE_ML_MULTITASK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ml/ann.hh"
#include "ml/cross_validation.hh"
#include "ml/encoding.hh"

namespace dse {
namespace ml {

/** A data set with several targets per row; target 0 is primary. */
struct MultiTaskDataSet
{
    std::vector<std::string> targetNames;
    std::vector<std::vector<double>> x;
    std::vector<std::vector<double>> y;  ///< one value per target

    size_t size() const { return x.size(); }
    size_t targets() const { return targetNames.size(); }

    void
    add(std::vector<double> features, std::vector<double> target_values)
    {
        x.push_back(std::move(features));
        y.push_back(std::move(target_values));
    }
};

/**
 * A k-fold cross-validation ensemble of multi-output networks.
 */
class MultiTaskEnsemble
{
  public:
    MultiTaskEnsemble(std::vector<Ann> nets,
                      std::vector<TargetScaler> scalers,
                      ErrorEstimate primary_estimate);

    /** Predict all targets (raw units, ensemble average). */
    std::vector<double> predictAll(const std::vector<double> &x) const;

    /** Predict only the primary target. */
    double predictPrimary(const std::vector<double> &x) const;

    /** Cross-validation estimate for the primary target. */
    const ErrorEstimate &estimate() const { return estimate_; }

    size_t members() const { return nets_.size(); }

  private:
    std::vector<Ann> nets_;
    std::vector<TargetScaler> scalers_;
    ErrorEstimate estimate_;
};

/**
 * Train a multi-task ensemble through trainEnsemble's fold loop
 * (detail::trainFolds): the same fold rotation, concurrent folds on
 * per-fold SplitMix64 streams (bit-identical at any DSE_THREADS),
 * divergence retries, weighted presentation and early stopping
 * (opts.percentageEarlyStop) on the primary target. Each target gets
 * its own scaler. A fold that exhausts its retries is dropped, so
 * members() may be below opts.folds; estimate() is then widened by
 * sqrt(k / survivors).
 *
 * @throws std::invalid_argument with no targets or too few rows
 * @throws std::runtime_error if all folds diverge
 */
MultiTaskEnsemble trainMultiTaskEnsemble(const MultiTaskDataSet &data,
                                         const TrainOptions &opts);

} // namespace ml
} // namespace dse

#endif // DSE_ML_MULTITASK_HH
