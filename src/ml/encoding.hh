/**
 * @file
 * Design-space description and parameter encoding (Section 3.3).
 *
 * Architectural parameters fall into four categories, each encoded
 * differently for the network:
 *  - cardinal/continuous: one input, minimax-normalized to [0, 1]
 *    over the parameter's range in the space;
 *  - nominal: one-hot (one input per setting), since the settings
 *    carry no range information;
 *  - boolean: one 0/1 input.
 *
 * A DesignSpace is the cross product of its parameters' levels; design
 * points are addressed either by a flat index in [0, size()) or by a
 * per-parameter level vector (mixed-radix representation).
 */

#ifndef DSE_ML_ENCODING_HH
#define DSE_ML_ENCODING_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dse {
namespace ml {

/** Encoding category of a design parameter. */
enum class ParamKind { Cardinal, Continuous, Nominal, Boolean };

/** One design parameter and its levels. */
struct ParamDesc
{
    std::string name;
    ParamKind kind = ParamKind::Cardinal;
    /** Numeric level values (cardinal/continuous/boolean). */
    std::vector<double> values;
    /** Level labels (nominal). */
    std::vector<std::string> labels;

    /** Number of settings this parameter can take. */
    int
    numLevels() const
    {
        return kind == ParamKind::Nominal
            ? static_cast<int>(labels.size())
            : static_cast<int>(values.size());
    }

    /** Number of network inputs this parameter occupies. */
    int
    encodedWidth() const
    {
        return kind == ParamKind::Nominal ? numLevels() : 1;
    }
};

/**
 * The cross product of a set of parameters.
 *
 * Dependent parameters (e.g. the processor study's register-file
 * size, which offers two choices per ROB size) are modeled as
 * selector parameters whose concrete value is resolved by the study's
 * configuration mapping; the space itself stays a pure cross product,
 * matching the paper's design-space sizes exactly.
 */
class DesignSpace
{
  public:
    /// @name Construction.
    /// @{
    void addCardinal(const std::string &name, std::vector<double> values);
    void addContinuous(const std::string &name, std::vector<double> values);
    void addNominal(const std::string &name,
                    std::vector<std::string> labels);
    void addBoolean(const std::string &name);
    /// @}

    /** Number of parameters. */
    size_t numParams() const { return params_.size(); }

    /** Parameter descriptor. */
    const ParamDesc &param(size_t i) const { return params_[i]; }

    /** Index of the parameter with this name; throws if absent. */
    size_t paramIndex(const std::string &name) const;

    /** Total number of design points (product of level counts). */
    uint64_t size() const;

    /** Width of the encoded feature vector. */
    int encodedWidth() const;

    /** Decode a flat index into per-parameter levels. */
    std::vector<int> levels(uint64_t index) const;

    /** Flat index of a level vector. */
    uint64_t index(const std::vector<int> &levels) const;

    /** Encode a level vector as a normalized network input. */
    std::vector<double> encode(const std::vector<int> &levels) const;

    /** Encode a flat index directly. */
    std::vector<double> encodeIndex(uint64_t index) const;

    /**
     * Encode a flat index into a caller-provided buffer of
     * encodedWidth() doubles, with no heap allocation — the form the
     * batched prediction paths use. Bit-identical to encodeIndex()
     * (same normalization arithmetic, from bounds cached at
     * construction).
     */
    void encodeIndexInto(uint64_t index, double *out) const;

    /**
     * Encode `count` consecutive indices [first, first + count) into
     * @p out (row-major [count x encodedWidth()]). The per-parameter
     * levels advance odometer-style, avoiding encodeIndexInto's
     * per-point divisions; each row is bit-identical to
     * encodeIndexInto on the same index. This is the fast path for
     * full-space prediction.
     */
    void encodeRangeInto(uint64_t first, size_t count, double *out) const;

    /** Numeric value of parameter `p` at level `l` (non-nominal). */
    double value(size_t p, int l) const;

    /** Label of nominal parameter `p` at level `l`. */
    const std::string &label(size_t p, int l) const;

    /** Level `l` of parameter `p` as printed: the label of a nominal
     *  parameter, the value in `%g` form otherwise. */
    std::string levelText(size_t p, int l) const;

    /** Numeric value of the named parameter in a level vector. */
    double valueOf(const std::string &name,
                   const std::vector<int> &levels) const;

    /** Label of the named nominal parameter in a level vector. */
    const std::string &labelOf(const std::string &name,
                               const std::vector<int> &levels) const;

  private:
    void validateLevels(const std::vector<int> &levels) const;

    /** Encode an (already validated) level vector into out. */
    void encodeLevelsInto(const int *levels, double *out) const;

    /** Refresh the per-parameter encode cache after adding a param. */
    void rebuildCache();

    std::vector<ParamDesc> params_;
    // Per-parameter normalization bounds and mixed-radix strides,
    // cached at construction so encodeIndexInto() is allocation-free
    // (minRaw/span mirror the minmax encode() historically recomputed
    // per call — same values, same arithmetic).
    std::vector<double> minRaw_;
    std::vector<double> span_;
    std::vector<uint64_t> stride_;
    uint64_t size_ = 1;
};

/**
 * Minimax scaler for the regression target (Section 3.3: targets are
 * encoded the same way as continuous inputs).
 *
 * Fitted on the *training* targets only — the true range of the full
 * space is unknown before simulating it — with a safety margin so
 * unseen points slightly outside the training range stay decodable,
 * and mapped into [lo, hi] away from the sigmoid's saturated tails.
 */
class TargetScaler
{
  public:
    /** Fit to a set of raw target values. */
    void fit(const std::vector<double> &targets, double margin = 0.25,
             double lo = 0.1, double hi = 0.9);

    /** Raw value -> network target in [0, 1]. */
    double encode(double raw) const;

    /** Network output -> raw value. */
    double decode(double encoded) const;

    double rawMin() const { return rawMin_; }
    double rawMax() const { return rawMax_; }
    double lo() const { return lo_; }
    double hi() const { return hi_; }

    /** Rebuild a scaler from stored parameters (deserialization). */
    static TargetScaler fromRange(double raw_min, double raw_max,
                                  double lo, double hi);

  private:
    double rawMin_ = 0.0;
    double rawMax_ = 1.0;
    double lo_ = 0.1;
    double hi_ = 0.9;
};

} // namespace ml
} // namespace dse

#endif // DSE_ML_ENCODING_HH
