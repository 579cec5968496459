/**
 * @file
 * Scalar reference oracles shared by the test suites and the
 * microbenchmarks (bench/micro_explore, bench/micro_ann): the plain
 * per-point forms the library's batched paths must reproduce bit for
 * bit. Only tests and benchmarks call them, so they live here rather
 * than in the library.
 */

#ifndef DSE_TESTS_ORACLES_HH
#define DSE_TESTS_ORACLES_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ml/cross_validation.hh"
#include "ml/explorer.hh"
#include "util/stats.hh"

namespace dse {
namespace ml {

/**
 * Adapt a scalar index -> value function (e.g. an analytic test
 * simulator) to a BatchSimulatorFn that evaluates it serially in
 * input order.
 */
inline BatchSimulatorFn
pointwise(std::function<double(uint64_t)> fn)
{
    return [fn = std::move(fn)](const std::vector<uint64_t> &indices) {
        std::vector<double> out;
        out.reserve(indices.size());
        for (uint64_t idx : indices)
            out.push_back(fn(idx));
        return out;
    };
}

/**
 * Spread of an ensemble's member predictions on one point (sample SD,
 * raw units): every member's prediction folded through OnlineStats in
 * member order. Ensemble::memberSpreadBatch and memberSpreadIndices
 * must match it bit for bit.
 */
inline double
memberSpread(const Ensemble &model, const std::vector<double> &features)
{
    OnlineStats acc;
    for (size_t m = 0; m < model.members(); ++m)
        acc.add(model.predictMember(m, features));
    return acc.stddev();
}

} // namespace ml
} // namespace dse

#endif // DSE_TESTS_ORACLES_HH
