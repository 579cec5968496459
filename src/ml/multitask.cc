#include "ml/multitask.hh"

#include <stdexcept>

namespace dse {
namespace ml {

MultiTaskEnsemble::MultiTaskEnsemble(std::vector<Ann> nets,
                                     std::vector<TargetScaler> scalers,
                                     ErrorEstimate primary_estimate)
    : nets_(std::move(nets)), scalers_(std::move(scalers)),
      estimate_(primary_estimate)
{
    if (nets_.empty())
        throw std::invalid_argument("ensemble needs at least one member");
}

std::vector<double>
MultiTaskEnsemble::predictAll(const std::vector<double> &x) const
{
    // Per-member outputs land in per-thread scratch; the only
    // allocation is the returned vector.
    const size_t outs = scalers_.size();
    thread_local std::vector<double> tmp;
    if (tmp.size() < outs)
        tmp.resize(outs);
    std::vector<double> sum(outs, 0.0);
    for (const auto &net : nets_) {
        net.predictBlockT(x.data(), 1, tmp.data());
        for (size_t t = 0; t < outs; ++t)
            sum[t] += tmp[t];
    }
    std::vector<double> decoded(outs);
    for (size_t t = 0; t < outs; ++t) {
        decoded[t] = scalers_[t].decode(
            sum[t] / static_cast<double>(nets_.size()));
    }
    return decoded;
}

double
MultiTaskEnsemble::predictPrimary(const std::vector<double> &x) const
{
    return predictAll(x)[0];
}

MultiTaskEnsemble
trainMultiTaskEnsemble(const MultiTaskDataSet &data,
                       const TrainOptions &opts)
{
    if (data.targets() == 0)
        throw std::invalid_argument("need at least one target");

    // One scaler per target; the targets are encoded once, row-major.
    const size_t outs = data.targets();
    std::vector<TargetScaler> scalers(outs);
    std::vector<std::vector<double>> cols(outs);
    for (size_t t = 0; t < outs; ++t) {
        for (const auto &row : data.y)
            cols[t].push_back(row[t]);
        scalers[t].fit(cols[t]);
    }
    std::vector<double> encoded(data.size() * outs);
    for (size_t i = 0; i < data.size(); ++i)
        for (size_t t = 0; t < outs; ++t)
            encoded[i * outs + t] = scalers[t].encode(cols[t][i]);

    auto r = detail::trainFolds(data.x, cols[0], scalers[0], encoded,
                                static_cast<int>(outs), opts);
    return MultiTaskEnsemble(std::move(r.nets), std::move(scalers),
                             r.estimate);
}

} // namespace ml
} // namespace dse
