#include "remote/worker.hh"

#include <unistd.h>

#include <exception>

#include "util/fault.hh"
#include "util/metrics.hh"

namespace dse {
namespace remote {

namespace {

struct WorkerMetrics
{
    obs::CounterId batches, points;

    static const WorkerMetrics &
    get()
    {
        static const WorkerMetrics m = [] {
            auto &r = obs::MetricsRegistry::global();
            WorkerMetrics w;
            w.batches = r.counter("remote.worker_batches");
            w.points = r.counter("remote.worker_points");
            return w;
        }();
        return m;
    }
};

} // namespace

SimWorker::SimWorker(SimWorkerOptions opts) : opts_(std::move(opts)),
                                              server_(opts_.server)
{
    server_.setSimulateHandler(
        [this](const serve::SimulateBatchRequest &req,
               serve::SimulateBatchReply &reply, std::string &error) {
            return handle(req, reply, error);
        });
}

SimWorker::~SimWorker()
{
    stop();
}

void
SimWorker::start()
{
    server_.start();
}

void
SimWorker::stop()
{
    server_.stop();
}

uint64_t
SimWorker::batchesServed() const
{
    return batches_.load(std::memory_order_relaxed);
}

std::shared_ptr<study::StudyContext>
SimWorker::contextFor(const serve::SimulateBatchRequest &req)
{
    const std::string key = std::to_string(req.study) + "|" + req.app +
        "|" + std::to_string(req.traceLength);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = contexts_.find(key);
    if (it != contexts_.end())
        return it->second;
    auto ctx = std::make_shared<study::StudyContext>(
        static_cast<study::StudyKind>(req.study), req.app,
        static_cast<size_t>(req.traceLength));
    contexts_.emplace(key, ctx);
    return ctx;
}

serve::SimulateVerdict
SimWorker::handle(const serve::SimulateBatchRequest &req,
                  serve::SimulateBatchReply &reply, std::string &error)
{
    if (req.study > 1) {
        error = "unknown study kind";
        return serve::SimulateVerdict::BadRequest;
    }
    if (req.indices.empty() ||
        req.indices.size() > opts_.maxBatchPoints) {
        error = "batch size outside [1, " +
            std::to_string(opts_.maxBatchPoints) + "]";
        return serve::SimulateVerdict::BadRequest;
    }

    // Chaos site, keyed by the batch's first index so the decision is
    // a pure per-batch function (fault.hh determinism contract).
    if (util::FaultInjector::global().shouldFail(
            "remote.worker.crash", req.indices[0] ^ opts_.faultSalt)) {
        if (opts_.crashExits)
            _exit(3);  // emulate SIGKILL: no reply, no cleanup
        return serve::SimulateVerdict::Crash;
    }

    try {
        auto ctx = contextFor(req);
        const uint64_t space = ctx->space().size();
        for (uint64_t idx : req.indices) {
            if (idx >= space) {
                error = "design-point index outside the space";
                return serve::SimulateVerdict::BadRequest;
            }
        }
        reply.simpoint = req.simpoint;
        if (req.simpoint)
            reply.ipc = ctx->simulateBatch(req.indices,
                                           study::Fidelity::SimPoint);
        else
            reply.results = ctx->simulateFullBatch(req.indices);
    } catch (const std::exception &e) {
        error = std::string("simulation failed: ") + e.what();
        return serve::SimulateVerdict::BadRequest;
    }

    batches_.fetch_add(1, std::memory_order_relaxed);
    auto &registry = obs::MetricsRegistry::global();
    registry.add(WorkerMetrics::get().batches);
    registry.add(WorkerMetrics::get().points, req.indices.size());
    return serve::SimulateVerdict::Reply;
}

} // namespace remote
} // namespace dse
