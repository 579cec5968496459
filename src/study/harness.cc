#include "study/harness.hh"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "util/env.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"
#include "workload/generator.hh"

namespace dse {
namespace study {

namespace {

/** Simulation-stage metrics (DESIGN.md "Observability"): every
 *  distinct point of a detailed batch is a request that resolves as
 *  either a memo hit or an executed simulation, so sim.memo_hits +
 *  sim.executed == sim.requests whenever no fault injection
 *  interferes. */
struct SimMetrics
{
    obs::CounterId requests, memoHits, executed;
    obs::CounterId spRequests, spMemoHits, spEstimates;
    obs::HistogramId wallNs, spWallNs;

    static const SimMetrics &
    get()
    {
        static const SimMetrics m = [] {
            auto &r = obs::MetricsRegistry::global();
            SimMetrics s;
            s.requests = r.counter("sim.requests");
            s.memoHits = r.counter("sim.memo_hits");
            s.executed = r.counter("sim.executed");
            s.spRequests = r.counter("sim.simpoint_requests");
            s.spMemoHits = r.counter("sim.simpoint_memo_hits");
            s.spEstimates = r.counter("sim.simpoint_estimates");
            s.wallNs = r.histogram("sim.wall_ns");
            s.spWallNs = r.histogram("sim.simpoint_wall_ns");
            return s;
        }();
        return m;
    }
};

/** Resolve the journal path: explicit argument wins, else DSE_JOURNAL
 *  with "{study}"/"{app}" placeholders expanded (so one environment
 *  setting journals a multi-app sweep into per-app files). */
std::string
resolveJournalPath(const std::string &explicit_path, StudyKind kind,
                   const std::string &app)
{
    std::string path = explicit_path;
    if (path.empty()) {
        const char *env = std::getenv("DSE_JOURNAL");
        if (!env || !*env)
            return "";
        path = env;
    }
    const auto expand = [&path](const std::string &key,
                                const std::string &value) {
        for (size_t at; (at = path.find(key)) != std::string::npos;)
            path.replace(at, key.size(), value);
    };
    expand("{study}", studyName(kind));
    expand("{app}", app);
    return path;
}

/**
 * The batch-simulation fan-out behind every StudyContext batch call:
 * each distinct index of @p indices is resolved exactly once — one
 * counted memo lookup, or one execution — concurrently on the global
 * ThreadPool (a lone one on the caller, without building the pool),
 * and its value is copied to every position it occupies, in input
 * order. Duplicates cost nothing extra.
 */
template <typename T, typename Resolve>
std::vector<T>
resolveDistinct(const std::vector<uint64_t> &indices,
                const Resolve &resolve)
{
    std::unordered_map<uint64_t, size_t> slotOf;
    std::vector<uint64_t> distinct;
    std::vector<size_t> slots;
    slots.reserve(indices.size());
    for (uint64_t idx : indices) {
        const auto [it, fresh] = slotOf.emplace(idx, distinct.size());
        if (fresh)
            distinct.push_back(idx);
        slots.push_back(it->second);
    }

    std::vector<T> values(distinct.size());
    const auto resolveAt = [&](size_t i) {
        values[i] = resolve(distinct[i]);
    };
    if (distinct.size() == 1)
        resolveAt(0);
    else
        util::ThreadPool::global().parallelFor(0, distinct.size(),
                                               resolveAt);

    std::vector<T> out;
    out.reserve(indices.size());
    for (size_t slot : slots)
        out.push_back(values[slot]);
    return out;
}

} // namespace

StudyContext::StudyContext(StudyKind kind, const std::string &app,
                           size_t trace_length,
                           const std::string &journal_path)
    : kind_(kind), app_(app), space_(spaceFor(kind)),
      trace_(workload::generateBenchmarkTrace(app, trace_length))
{
    const std::string path = resolveJournalPath(journal_path, kind, app);
    if (path.empty())
        return;
    journal_ = std::make_unique<SimJournal>(path, kind_, app_,
                                            trace_.size());
    journalStats_ = journal_->replay(
        [this](uint64_t index, const sim::SimResult &result) {
            detailed_.insert(index, result);
        });
}

const sim::SimResult &
StudyContext::memoizeResult(uint64_t index, sim::SimResult result)
{
    // Journal only the winning insert (a lost duplicate is identical
    // anyway), under the shard lock so appends for one shard stay
    // ordered. Remote results journal too: they are real results.
    return detailed_.insert(index, std::move(result),
                            [&](const sim::SimResult &r) {
                                if (journal_)
                                    journal_->append(index, r);
                            });
}

const sim::SimResult &
StudyContext::resolveDetailed(uint64_t index)
{
    const auto &sm = SimMetrics::get();
    auto &registry = obs::MetricsRegistry::global();
    registry.add(sm.requests);
    if (const auto *hit = detailed_.find(index)) {
        registry.add(sm.memoHits);
        return *hit;
    }

    if (util::FaultInjector::global().shouldFail("sim", index)) {
        throw std::runtime_error("injected fault: simulate(" +
                                 std::to_string(index) + ")");
    }

    // Simulate outside the lock: concurrent callers may duplicate the
    // work of a point briefly in flight, but the result is a pure
    // function of the index, so whichever insert wins is identical.
    sim::SimOptions opts;
    opts.warmCaches = true;
    std::optional<sim::SimResult> result;
    {
        obs::TraceScope span("sim", sm.wallNs);
        result = sim::simulate(trace_, config(index), opts);
    }
    registry.add(sm.executed);
    executed_.fetch_add(1, std::memory_order_relaxed);
    return memoizeResult(index, std::move(*result));
}

std::vector<sim::SimResult>
StudyContext::simulateFullBatch(const std::vector<uint64_t> &indices)
{
    return resolveDistinct<sim::SimResult>(
        indices, [this](uint64_t idx) { return resolveDetailed(idx); });
}

std::vector<double>
StudyContext::simulateBatch(const std::vector<uint64_t> &indices,
                            Fidelity fidelity)
{
    if (fidelity == Fidelity::Detailed) {
        return resolveDistinct<double>(indices, [this](uint64_t idx) {
            return resolveDetailed(idx).ipc;
        });
    }
    // Calibrate up front (which also selects the SimPoints), so the
    // parallel region only reads them.
    const double scale = simPointScale();
    return resolveDistinct<double>(indices, [this, scale](uint64_t idx) {
        const auto &sm = SimMetrics::get();
        auto &registry = obs::MetricsRegistry::global();
        registry.add(sm.spRequests);
        if (const double *hit = simPoint_.find(idx)) {
            registry.add(sm.spMemoHits);
            return *hit;
        }
        std::optional<simpoint::SimPointEstimate> est;
        {
            obs::TraceScope span("simpoint", sm.spWallNs);
            est = simpoint::estimateIpc(trace_, config(idx), simPoints());
        }
        registry.add(sm.spEstimates);
        return simPoint_.insert(idx, est->ipc * scale);
    });
}

std::vector<uint64_t>
StudyContext::missing(const std::vector<uint64_t> &indices,
                      Fidelity fidelity) const
{
    std::unordered_set<uint64_t> seen;
    std::vector<uint64_t> out;
    for (uint64_t idx : indices) {
        const bool have = fidelity == Fidelity::Detailed
            ? detailed_.find(idx) != nullptr
            : simPoint_.find(idx) != nullptr;
        if (!have && seen.insert(idx).second)
            out.push_back(idx);
    }
    return out;
}

sim::MachineConfig
StudyContext::config(uint64_t index) const
{
    return configFor(kind_, space_, space_.levels(index));
}

void
StudyContext::injectResult(uint64_t index, const sim::SimResult &result)
{
    memoizeResult(index, result);
}

void
StudyContext::injectSimPointEstimate(uint64_t index, double ipc)
{
    simPoint_.insert(index, ipc);
}

const simpoint::SimPoints &
StudyContext::simPoints()
{
    std::lock_guard<std::mutex> lock(simPointMu_);
    if (!simPoints_) {
        simpoint::SimPointOptions opts;
        // Scale the interval to the trace (the paper scales 100M ->
        // 10M for MinneSPEC): 16 intervals per trace. Shorter
        // intervals are cheaper but their content stops being
        // representative at this trace scale (EXPERIMENTS.md,
        // "SimPoint scale").
        opts.intervalLength = std::max<size_t>(2048, trace_.size() / 16);
        opts.maxK = 6;
        simPoints_ = std::make_unique<simpoint::SimPoints>(
            simpoint::pickSimPoints(trace_, opts));
    }
    return *simPoints_;
}

double
StudyContext::simPointScale()
{
    {
        std::lock_guard<std::mutex> lock(simPointMu_);
        if (simPointScale_ != 0.0)
            return simPointScale_;
    }
    // One-time calibration against the space's middle point, computed
    // outside the lock (both inputs are deterministic, so concurrent
    // calibrations agree and the first store wins harmlessly).
    const uint64_t ref = space_.size() / 2;
    const double full = resolveDetailed(ref).ipc;
    const double raw =
        simpoint::estimateIpc(trace_, config(ref), simPoints()).ipc;
    const double scale = raw > 0.0 ? full / raw : 1.0;

    std::lock_guard<std::mutex> lock(simPointMu_);
    if (simPointScale_ == 0.0)
        simPointScale_ = scale;
    return simPointScale_;
}

std::vector<uint64_t>
holdoutIndices(const ml::DesignSpace &space,
               const std::vector<uint64_t> &excluded, size_t n,
               uint64_t seed)
{
    const uint64_t space_size = space.size();
    std::unordered_set<uint64_t> banned(excluded.begin(), excluded.end());

    if (n == 0 || n + banned.size() >= space_size) {
        // Full-space evaluation: everything not excluded.
        std::vector<uint64_t> all;
        all.reserve(space_size - banned.size());
        for (uint64_t i = 0; i < space_size; ++i) {
            if (!banned.count(i))
                all.push_back(i);
        }
        return all;
    }

    Rng rng(seed);
    std::unordered_set<uint64_t> chosen;
    std::vector<uint64_t> out;
    out.reserve(n);
    while (out.size() < n) {
        const uint64_t idx = rng.below(space_size);
        if (banned.count(idx) || chosen.count(idx))
            continue;
        chosen.insert(idx);
        out.push_back(idx);
    }
    return out;
}

TrueError
measureTrueError(StudyContext &ctx, const ml::Ensemble &model,
                 const std::vector<uint64_t> &eval_points)
{
    // Simulate the holdout concurrently, predict it through the
    // batched ensemble path (itself parallel and thread-count
    // invariant), then score over a fixed order.
    const auto actual = ctx.simulateBatch(eval_points);
    const auto predicted = model.predictIndices(ctx.space(), eval_points);
    std::vector<double> errors(eval_points.size());
    for (size_t i = 0; i < eval_points.size(); ++i)
        errors[i] = percentageError(predicted[i], actual[i]);
    TrueError out;
    out.meanPct = mean(errors);
    out.sdPct = stddev(errors);
    return out;
}

BenchScope
BenchScope::fromEnv(const std::vector<std::string> &default_apps)
{
    BenchScope scope;
    scope.apps = envList("DSE_APPS", default_apps);
    scope.evalPoints = static_cast<size_t>(
        envInt("DSE_EVAL_POINTS", 1000));
    if (envBool("DSE_FULL_SPACE", false))
        scope.evalPoints = 0;
    scope.traceLength = static_cast<size_t>(envInt("DSE_TRACE_LEN", 0));
    scope.maxSamplePct = envDouble("DSE_MAX_SAMPLE_PCT", 4.5);
    scope.batch = static_cast<size_t>(envInt("DSE_BATCH", 50));
    scope.threads = util::ThreadPool::configuredThreads();
    return scope;
}

} // namespace study
} // namespace dse
