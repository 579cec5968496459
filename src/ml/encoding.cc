#include "ml/encoding.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

namespace dse {
namespace ml {

void
DesignSpace::addCardinal(const std::string &name, std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("parameter needs at least one level");
    ParamDesc p;
    p.name = name;
    p.kind = ParamKind::Cardinal;
    p.values = std::move(values);
    params_.push_back(std::move(p));
    rebuildCache();
}

void
DesignSpace::addContinuous(const std::string &name,
                           std::vector<double> values)
{
    addCardinal(name, std::move(values));
    params_.back().kind = ParamKind::Continuous;
}

void
DesignSpace::addNominal(const std::string &name,
                        std::vector<std::string> labels)
{
    if (labels.empty())
        throw std::invalid_argument("parameter needs at least one level");
    ParamDesc p;
    p.name = name;
    p.kind = ParamKind::Nominal;
    p.labels = std::move(labels);
    params_.push_back(std::move(p));
    rebuildCache();
}

void
DesignSpace::addBoolean(const std::string &name)
{
    ParamDesc p;
    p.name = name;
    p.kind = ParamKind::Boolean;
    p.values = {0.0, 1.0};
    params_.push_back(std::move(p));
    rebuildCache();
}

void
DesignSpace::rebuildCache()
{
    const size_t n = params_.size();
    minRaw_.assign(n, 0.0);
    span_.assign(n, 0.0);
    stride_.assign(n, 1);
    size_ = 1;
    for (size_t i = n; i-- > 0;) {
        stride_[i] = size_;
        size_ *= static_cast<uint64_t>(params_[i].numLevels());
        const ParamDesc &p = params_[i];
        if (p.kind == ParamKind::Cardinal ||
            p.kind == ParamKind::Continuous) {
            const auto [mn, mx] = std::minmax_element(
                p.values.begin(), p.values.end());
            minRaw_[i] = *mn;
            span_[i] = *mx - *mn;
        }
    }
}

size_t
DesignSpace::paramIndex(const std::string &name) const
{
    for (size_t i = 0; i < params_.size(); ++i) {
        if (params_[i].name == name)
            return i;
    }
    throw std::invalid_argument("unknown parameter: " + name);
}

uint64_t
DesignSpace::size() const
{
    return size_;
}

int
DesignSpace::encodedWidth() const
{
    int w = 0;
    for (const auto &p : params_)
        w += p.encodedWidth();
    return w;
}

std::vector<int>
DesignSpace::levels(uint64_t index) const
{
    if (index >= size())
        throw std::out_of_range("design-point index out of range");
    std::vector<int> out(params_.size());
    // Mixed radix, last parameter fastest.
    for (size_t i = params_.size(); i-- > 0;) {
        const uint64_t radix =
            static_cast<uint64_t>(params_[i].numLevels());
        out[i] = static_cast<int>(index % radix);
        index /= radix;
    }
    return out;
}

uint64_t
DesignSpace::index(const std::vector<int> &levels) const
{
    validateLevels(levels);
    uint64_t idx = 0;
    for (size_t i = 0; i < params_.size(); ++i) {
        idx = idx * static_cast<uint64_t>(params_[i].numLevels()) +
            static_cast<uint64_t>(levels[i]);
    }
    return idx;
}

void
DesignSpace::validateLevels(const std::vector<int> &levels) const
{
    if (levels.size() != params_.size())
        throw std::invalid_argument("level vector has wrong arity");
    for (size_t i = 0; i < params_.size(); ++i) {
        if (levels[i] < 0 || levels[i] >= params_[i].numLevels())
            throw std::out_of_range("level out of range for parameter " +
                                    params_[i].name);
    }
}

void
DesignSpace::encodeLevelsInto(const int *levels, double *out) const
{
    for (size_t i = 0; i < params_.size(); ++i) {
        const ParamDesc &p = params_[i];
        switch (p.kind) {
          case ParamKind::Nominal:
            for (int l = 0; l < p.numLevels(); ++l)
                *out++ = l == levels[i] ? 1.0 : 0.0;
            break;
          case ParamKind::Boolean:
            *out++ = p.values[static_cast<size_t>(levels[i])];
            break;
          case ParamKind::Cardinal:
          case ParamKind::Continuous: {
            const double span = span_[i];
            const double v = p.values[static_cast<size_t>(levels[i])];
            *out++ = span > 0.0 ? (v - minRaw_[i]) / span : 0.5;
            break;
          }
        }
    }
}

std::vector<double>
DesignSpace::encode(const std::vector<int> &levels) const
{
    validateLevels(levels);
    std::vector<double> x(static_cast<size_t>(encodedWidth()));
    encodeLevelsInto(levels.data(), x.data());
    return x;
}

std::vector<double>
DesignSpace::encodeIndex(uint64_t index) const
{
    std::vector<double> x(static_cast<size_t>(encodedWidth()));
    encodeIndexInto(index, x.data());
    return x;
}

namespace {

/** Per-thread level scratch for the allocation-free encode paths. */
int *
levelScratch(size_t n)
{
    thread_local std::vector<int> buf;
    if (buf.size() < n)
        buf.resize(n);
    return buf.data();
}

} // namespace

void
DesignSpace::encodeIndexInto(uint64_t index, double *out) const
{
    if (index >= size_)
        throw std::out_of_range("design-point index out of range");
    int *levels = levelScratch(params_.size());
    // Mixed radix, last parameter fastest.
    for (size_t i = params_.size(); i-- > 0;) {
        const uint64_t radix =
            static_cast<uint64_t>(params_[i].numLevels());
        levels[i] = static_cast<int>(index % radix);
        index /= radix;
    }
    encodeLevelsInto(levels, out);
}

void
DesignSpace::encodeRangeInto(uint64_t first, size_t count,
                             double *out) const
{
    if (count == 0)
        return;
    if (first >= size_ || count > size_ - first)
        throw std::out_of_range("design-point range out of range");
    const size_t np = params_.size();
    int *levels = levelScratch(np);
    uint64_t index = first;
    for (size_t i = np; i-- > 0;) {
        const uint64_t radix =
            static_cast<uint64_t>(params_[i].numLevels());
        levels[i] = static_cast<int>(index % radix);
        index /= radix;
    }
    const size_t width = static_cast<size_t>(encodedWidth());
    for (size_t r = 0;;) {
        encodeLevelsInto(levels, out + r * width);
        if (++r == count)
            break;
        // Odometer step: increment the fastest (last) parameter,
        // carrying into slower ones.
        for (size_t i = np; i-- > 0;) {
            if (++levels[i] < params_[i].numLevels())
                break;
            levels[i] = 0;
        }
    }
}

double
DesignSpace::value(size_t p, int l) const
{
    const ParamDesc &desc = params_.at(p);
    if (desc.kind == ParamKind::Nominal)
        throw std::invalid_argument("nominal parameter has no value");
    return desc.values.at(static_cast<size_t>(l));
}

const std::string &
DesignSpace::label(size_t p, int l) const
{
    const ParamDesc &desc = params_.at(p);
    if (desc.kind != ParamKind::Nominal)
        throw std::invalid_argument("parameter is not nominal");
    return desc.labels.at(static_cast<size_t>(l));
}

std::string
DesignSpace::levelText(size_t p, int l) const
{
    if (params_.at(p).kind == ParamKind::Nominal)
        return label(p, l);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", value(p, l));
    return buf;
}

double
DesignSpace::valueOf(const std::string &name,
                     const std::vector<int> &levels) const
{
    const size_t p = paramIndex(name);
    return value(p, levels.at(p));
}

const std::string &
DesignSpace::labelOf(const std::string &name,
                     const std::vector<int> &levels) const
{
    const size_t p = paramIndex(name);
    return label(p, levels.at(p));
}

void
TargetScaler::fit(const std::vector<double> &targets, double margin,
                  double lo, double hi)
{
    if (targets.empty())
        throw std::invalid_argument("cannot fit scaler to no targets");
    if (!(lo < hi))
        throw std::invalid_argument("scaler needs lo < hi");
    const auto [mn, mx] = std::minmax_element(targets.begin(),
                                              targets.end());
    double span = *mx - *mn;
    if (span <= 0.0)
        span = std::max(1e-9, std::abs(*mn));
    rawMin_ = *mn - margin * span;
    rawMax_ = *mx + margin * span;
    lo_ = lo;
    hi_ = hi;
}

TargetScaler
TargetScaler::fromRange(double raw_min, double raw_max, double lo,
                        double hi)
{
    if (!(raw_min < raw_max) || !(lo < hi))
        throw std::invalid_argument("bad scaler range");
    TargetScaler s;
    s.rawMin_ = raw_min;
    s.rawMax_ = raw_max;
    s.lo_ = lo;
    s.hi_ = hi;
    return s;
}

double
TargetScaler::encode(double raw) const
{
    const double t = (raw - rawMin_) / (rawMax_ - rawMin_);
    return lo_ + t * (hi_ - lo_);
}

double
TargetScaler::decode(double encoded) const
{
    const double t = (encoded - lo_) / (hi_ - lo_);
    return rawMin_ + t * (rawMax_ - rawMin_);
}

} // namespace ml
} // namespace dse
