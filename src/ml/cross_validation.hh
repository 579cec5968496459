/**
 * @file
 * k-fold cross-validation ensemble training (Section 3.2).
 *
 * The training sample is split into k folds. Network i trains on
 * folds {1..k} \ {es_i, test_i}, early-stops on fold es_i, and its
 * accuracy is estimated on fold test_i; the es/test folds rotate so
 * every fold serves each role once. The resulting k networks form an
 * ensemble whose prediction is the average of the member predictions.
 * The pooled percentage errors on the k test folds give the
 * cross-validation estimate of the ensemble's mean error and its
 * standard deviation over the whole design space — the signal the
 * architect uses to decide when to stop simulating.
 *
 * Architecture-specific training details from Section 3.3:
 *  - examples are presented at a frequency proportional to the
 *    inverse of their target value, optimizing percentage (not
 *    absolute) error;
 *  - early stopping monitors percentage error on the ES fold and
 *    rolls back to the best-seen weights.
 *
 * Fold networks are independent: each owns an RNG stream derived from
 * the training seed via SplitMix64, so the fold loop
 * (detail::trainFolds, shared with the multi-task trainer) trains the
 * k folds concurrently on the global ThreadPool, with results
 * bit-identical to serial execution at any DSE_THREADS setting (see
 * DESIGN.md, "Parallel execution & determinism").
 *
 * Targets are encoded once per data set; per fold, training rows are
 * packed once into a contiguous matrix, and each epoch runs as a
 * single Ann::trainEpoch call over a pre-drawn presentation order
 * (see DESIGN.md, "Training pipeline") — bit-identical to the
 * historical per-example loop, without its per-presentation encode
 * and vector traffic.
 */

#ifndef DSE_ML_CROSS_VALIDATION_HH
#define DSE_ML_CROSS_VALIDATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ml/ann.hh"
#include "ml/encoding.hh"

namespace dse {
namespace ml {

/** A supervised regression data set (encoded features, raw targets). */
struct DataSet
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;

    size_t size() const { return x.size(); }

    void
    add(std::vector<double> features, double target)
    {
        x.push_back(std::move(features));
        y.push_back(target);
    }
};

/** Cross-validation estimate of model error over the design space. */
struct ErrorEstimate
{
    double meanPct = 0.0;  ///< estimated mean percentage error
    double sdPct = 0.0;    ///< estimated SD of percentage error
};

/** Training configuration. */
struct TrainOptions
{
    int folds = 10;
    AnnParams ann;
    int maxEpochs = 8000;
    /** Evaluate the early-stopping fold every this many epochs. */
    int esInterval = 10;
    /** Early stopping: ES evaluations without improvement to stop. */
    int patience = 40;
    /** Present examples at frequency proportional to 1/target. */
    bool weightedPresentation = true;
    /** Early-stop on percentage (vs. squared) error. */
    bool percentageEarlyStop = true;
    /** Disable early stopping entirely (ablation). */
    bool earlyStopping = true;
    uint64_t seed = 12345;
    /**
     * Retraining attempts granted to a fold whose network diverges
     * (NaN/Inf weights or an exploding epoch loss). Each retry
     * reinitializes from a deterministically reseeded SplitMix64
     * stream, so recovery is bit-identical at any thread count. A
     * fold that exhausts 1 + foldRetries attempts is dropped and the
     * ensemble degrades gracefully (see trainEnsemble).
     */
    int foldRetries = 3;
};

/** One fold's failure report when training degraded (see Ensemble). */
struct TrainWarning
{
    int fold = 0;      ///< which fold was dropped
    int attempts = 0;  ///< initializations tried before giving up
    std::string message;
};

/**
 * The trained cross-validation ensemble: k networks plus the target
 * scaler and the error estimate derived from the test folds.
 */
class Ensemble
{
  public:
    Ensemble(std::vector<Ann> nets, TargetScaler scaler,
             ErrorEstimate estimate,
             std::vector<TrainWarning> warnings = {});

    /** Ensemble prediction: average of member predictions, decoded. */
    double predict(const std::vector<double> &features) const;

    /**
     * Batched ensemble prediction: @p x is row-major [n x inputs],
     * @p out receives the n decoded predictions. Each block of
     * Ann::kBlock points is transposed once and reused across all
     * members; per point, bit-for-bit identical to predict().
     * Thread-safe on a const ensemble.
     */
    void predictBatch(const double *x, size_t n, double *out) const;

    /**
     * Points per parallel chunk of the index-addressed batch paths
     * (predictIndices / predictRange / memberSpreadIndices): a few
     * Ann::kBlock panels per pool task. The chunk partition is a pure
     * function of the input length — never of DSE_THREADS — which is
     * what makes every chunked result bit-identical at any thread
     * count.
     */
    static constexpr size_t kScoreChunk = 4 * Ann::kBlock;

    /**
     * Predict a set of design points addressed by flat index,
     * encoding and evaluating block-wise in parallel on the global
     * ThreadPool. The block partition is fixed (independent of
     * DSE_THREADS), so results are bit-identical at any thread count
     * and to a predict() loop over the same indices.
     */
    std::vector<double> predictIndices(
        const DesignSpace &space,
        const std::vector<uint64_t> &indices) const;

    /**
     * Streaming prediction of the consecutive index range
     * [first, first + count): same fixed-chunk parallel evaluation as
     * predictIndices on an iota vector — bit-identical to it — but
     * the indices are implicit, so a full-space sweep never
     * materializes an 8-byte-per-point index vector. Every chunk
     * encodes through the odometer DesignSpace::encodeRangeInto.
     */
    std::vector<double> predictRange(const DesignSpace &space,
                                     uint64_t first, size_t count) const;

    /** Prediction of a single member (ablation/diagnostics). */
    double predictMember(size_t i,
                         const std::vector<double> &features) const;

    /**
     * Spread of member predictions (sample SD, raw units) on a batch:
     * @p x is row-major [n x inputs], @p out receives the n SDs. High
     * disagreement flags uncertainty — the active-learning extension
     * samples where this is largest. Each block of Ann::kBlock points
     * is transposed once into a coordinate-major panel and reused
     * across all members (the predictBatch treatment applied to
     * scoring); per point the member predictions fold through
     * OnlineStats in member order, so every value is bit-for-bit a
     * predictMember loop folded the same way. Thread-safe on a const
     * ensemble.
     */
    void memberSpreadBatch(const double *x, size_t n, double *out) const;

    /**
     * Member spread of a set of design points addressed by flat
     * index: encodes candidates in fixed kScoreChunk panels
     * (odometer encodeRangeInto for consecutive runs, encodeIndexInto
     * otherwise) and scores them via memberSpreadBatch in parallel on
     * the global ThreadPool. Results are in input order and
     * bit-identical to memberSpreadBatch over encodeIndex rows at any
     * thread count — the query-by-committee hot path.
     */
    std::vector<double> memberSpreadIndices(
        const DesignSpace &space,
        const std::vector<uint64_t> &indices) const;

    size_t members() const { return nets_.size(); }

    /** Cross-validation error estimate (mean and SD, percent). When
     *  training degraded, the estimate is widened (see warnings()). */
    const ErrorEstimate &estimate() const { return estimate_; }

    /**
     * Structured reports for folds dropped during training. Empty
     * for a healthy ensemble; non-empty means fewer than the
     * requested k members survived and estimate() was widened by
     * sqrt(k / survivors) to stay conservative.
     */
    const std::vector<TrainWarning> &warnings() const
    {
        return warnings_;
    }

    /** True if any fold was dropped during training. */
    bool degraded() const { return !warnings_.empty(); }

    const TargetScaler &scaler() const { return scaler_; }

    /** Shared member-network topology (serialization). */
    struct NetMeta
    {
        int inputs = 0;
        int outputs = 0;
        AnnParams params;
    };

    /** Topology and hyper-parameters of the member networks. */
    NetMeta netMeta() const;

    /** Flat weight vector of one member (serialization). */
    std::vector<double> memberWeights(size_t i) const;

  private:
    std::vector<Ann> nets_;
    TargetScaler scaler_;
    ErrorEstimate estimate_;
    std::vector<TrainWarning> warnings_;
};

/**
 * Train a k-fold cross-validation ensemble on a data set.
 *
 * Failure containment: a fold whose network diverges is retried up
 * to opts.foldRetries times from deterministically reseeded
 * initializations; a fold that still fails is dropped rather than
 * aborting the campaign. The returned ensemble then carries the
 * surviving members, a warnings() entry per dropped fold, and an
 * error estimate widened by sqrt(k / survivors). Only if *every*
 * fold exhausts its retries does this throw.
 *
 * @param data encoded features and raw (unscaled) targets
 * @param opts training configuration
 * @return the ensemble with its error estimate
 * @throws std::runtime_error if all folds diverge
 */
Ensemble trainEnsemble(const DataSet &data, const TrainOptions &opts);

namespace detail {

/** The k-fold trainer's output, before a wrapper adds its scalers. */
struct FoldResult
{
    std::vector<Ann> nets;  ///< surviving fold networks, in fold order
    ErrorEstimate estimate;  ///< of output 0; widened if degraded
    std::vector<TrainWarning> warnings;  ///< one per dropped fold
};

/**
 * The one k-fold cross-validation loop behind trainEnsemble and
 * trainMultiTaskEnsemble: fold dealing and rotation, per-fold
 * SplitMix64 streams, concurrent fold training with retries, weighted
 * presentation and early stopping on the primary target, and the
 * pooled (widened) estimate.
 *
 * @param x encoded feature rows
 * @param primary raw targets of output 0 (presentation weights,
 *        early stopping and the error estimate read only these)
 * @param scaler the fitted scaler of output 0
 * @param encoded row-major [x.size() x outputs] targets, already
 *        encoded by each output's scaler
 * @param outputs output units per network
 * @throws std::invalid_argument if x has fewer than opts.folds rows
 *         or opts.folds < 2
 * @throws std::runtime_error if all folds diverge
 */
FoldResult trainFolds(const std::vector<std::vector<double>> &x,
                      const std::vector<double> &primary,
                      const TargetScaler &scaler,
                      const std::vector<double> &encoded, int outputs,
                      const TrainOptions &opts);

} // namespace detail

} // namespace ml
} // namespace dse

#endif // DSE_ML_CROSS_VALIDATION_HH
