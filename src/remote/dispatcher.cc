#include "remote/dispatcher.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "serve/client.hh"
#include "util/env.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace dse {
namespace remote {

namespace {

/** remote.* instrumentation (metrics.hh registration idiom). */
struct RemoteMetrics
{
    obs::CounterId dispatched, completed, retries, redispatches, fallbacks;
    obs::HistogramId batchWallNs;

    static const RemoteMetrics &
    get()
    {
        static const RemoteMetrics m = [] {
            auto &r = obs::MetricsRegistry::global();
            RemoteMetrics s;
            s.dispatched = r.counter("remote.dispatched");
            s.completed = r.counter("remote.completed");
            s.retries = r.counter("remote.retries");
            s.redispatches = r.counter("remote.redispatches");
            s.fallbacks = r.counter("remote.fallbacks");
            s.batchWallNs = r.histogram("remote.batch_wall_ns");
            return s;
        }();
        return m;
    }
};

/** Seed of the dispatcher's backoff jitter stream. */
constexpr uint64_t kBackoffSeed = 0xd15e7c4ull;

/** Half-open probe (Ping) interval while a breaker is open. */
constexpr uint64_t kProbeIntervalMs = 100;

/** Outcome of one remote attempt (drives retry bookkeeping). */
enum class Outcome { Ok, Timeout, Disconnected, Other };

} // namespace

std::vector<Endpoint>
parseEndpoints(const std::string &spec)
{
    std::vector<Endpoint> out;
    for (const std::string &entry : split(spec, ',')) {
        const auto colon = entry.rfind(':');
        if (colon == std::string::npos || colon == 0)
            throw std::invalid_argument(
                "DSE_WORKERS entry '" + entry + "' is not host:port");
        const long port = std::atol(entry.c_str() + colon + 1);
        if (port <= 0 || port > 65535)
            throw std::invalid_argument(
                "DSE_WORKERS entry '" + entry + "' has a bad port");
        out.push_back(Endpoint{entry.substr(0, colon),
                               static_cast<uint16_t>(port)});
    }
    return out;
}

DispatcherOptions
DispatcherOptions::fromEnv()
{
    DispatcherOptions o;
    if (const char *spec = std::getenv("DSE_WORKERS")) {
        if (*spec)
            o.endpoints = parseEndpoints(spec);
    }
    o.batchPoints = static_cast<size_t>(std::max<long long>(
        1, envInt("DSE_REMOTE_BATCH",
                  static_cast<long long>(o.batchPoints))));
    o.maxAttempts = static_cast<uint32_t>(std::max<long long>(
        1, envInt("DSE_REMOTE_ATTEMPTS", o.maxAttempts)));
    o.backoffBaseMs = static_cast<int>(
        envInt("DSE_REMOTE_BACKOFF_MS", o.backoffBaseMs));
    o.breakerThreshold = static_cast<uint32_t>(std::max<long long>(
        1, envInt("DSE_REMOTE_BREAKER", o.breakerThreshold)));
    return o;
}

int
RemoteDispatcher::backoffDelayMs(uint64_t seed, uint64_t key,
                                 uint32_t attempt, int base_ms,
                                 int cap_ms)
{
    if (base_ms < 1)
        base_ms = 1;
    if (cap_ms < base_ms)
        cap_ms = base_ms;
    // Decorrelated jitter over an exponentially growing window: the
    // delay is uniform in [base, min(cap, base << attempt)], drawn
    // from a SplitMix64 stream keyed by (seed, batch key, attempt).
    // A pure function of its arguments — no clocks, no shared state —
    // so the whole retry schedule is identical at any thread count.
    SplitMix64 sm(seed ^ (key * 0x9e3779b97f4a7c15ull) ^
                  (static_cast<uint64_t>(attempt) << 32));
    const uint64_t r = sm.next();
    const uint32_t shift = attempt < 20 ? attempt : 20;
    uint64_t window = static_cast<uint64_t>(base_ms) << shift;
    window = std::min<uint64_t>(window, static_cast<uint64_t>(cap_ms));
    window = std::max<uint64_t>(window, static_cast<uint64_t>(base_ms));
    const uint64_t span = window - static_cast<uint64_t>(base_ms) + 1;
    return static_cast<int>(base_ms + r % span);
}

// ------------------------------------------------------------ structure

struct RemoteDispatcher::Task
{
    std::vector<uint64_t> indices;
    uint64_t key = 0;  ///< indices[0]; fault/backoff identity

    // Guarded by the dispatcher mutex. A task is queued, in flight, or
    // settled (done or failed) — never two of these at once.
    bool done = false;      ///< answered; results merged
    bool failed = false;    ///< exhausted; left to local simulation
    bool inflight = false;  ///< an endpoint thread is attempting it
    uint32_t attempt = 0;
    uint64_t notBeforeNs = 0;  ///< backoff gate
};

struct RemoteDispatcher::Worker
{
    Endpoint ep;
    serve::Client client;
    bool connected = false;      ///< thread-private
    uint64_t lastProbeNs = 0;    ///< thread-private (half-open pings)
    std::atomic<uint32_t> consecutiveFailures{0};
    std::atomic<bool> open{false};  ///< circuit breaker state
};

RemoteDispatcher::RemoteDispatcher(study::StudyContext &ctx,
                                   DispatcherOptions opts)
    : ctx_(ctx), opts_(std::move(opts))
{
    if (opts_.batchPoints == 0)
        opts_.batchPoints = 1;
    if (opts_.maxAttempts == 0)
        opts_.maxAttempts = 1;
    workers_.reserve(opts_.endpoints.size());
    for (const auto &ep : opts_.endpoints) {
        auto w = std::make_unique<Worker>();
        w->ep = ep;
        if (opts_.requestTimeoutMs > 0)
            w->client.setTimeout(opts_.requestTimeoutMs);
        workers_.push_back(std::move(w));
    }
    threads_.reserve(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

RemoteDispatcher::~RemoteDispatcher()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        exiting_ = true;
    }
    workCv_.notify_all();
    for (auto &t : threads_) {
        if (t.joinable())
            t.join();
    }
}

uint64_t
RemoteDispatcher::nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

DispatchStats
RemoteDispatcher::stats() const
{
    DispatchStats s;
    s.dispatched = counters_.dispatched.load();
    s.completed = counters_.completed.load();
    s.retries = counters_.retries.load();
    s.redispatches = counters_.redispatches.load();
    s.fallbacks = counters_.fallbacks.load();
    return s;
}

bool
RemoteDispatcher::breakerOpen(size_t i) const
{
    return i < workers_.size() &&
        workers_[i]->open.load(std::memory_order_relaxed);
}

bool
RemoteDispatcher::allBreakersOpen() const
{
    for (const auto &w : workers_) {
        if (!w->open.load(std::memory_order_relaxed))
            return false;
    }
    return !workers_.empty();
}

// ---------------------------------------------------------- coordinator

std::vector<double>
RemoteDispatcher::simulateBatch(const std::vector<uint64_t> &indices)
{
    // Only missing points travel; duplicates collapse.
    std::vector<uint64_t> todo;
    if (active()) {
        std::unordered_set<uint64_t> seen;
        for (uint64_t idx : indices) {
            if (!seen.insert(idx).second)
                continue;
            const bool have = opts_.simpoint
                ? ctx_.hasSimPointEstimate(idx)
                : ctx_.hasResult(idx);
            if (!have)
                todo.push_back(idx);
        }
    }

    std::vector<std::shared_ptr<Task>> tasks;
    for (size_t at = 0; at < todo.size(); at += opts_.batchPoints) {
        auto task = std::make_shared<Task>();
        const size_t end = std::min(todo.size(), at + opts_.batchPoints);
        task->indices.assign(todo.begin() + static_cast<ptrdiff_t>(at),
                             todo.begin() + static_cast<ptrdiff_t>(end));
        task->key = task->indices[0];
        tasks.push_back(std::move(task));
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &task : tasks)
            queue_.push_back(task);
        outstanding_ += tasks.size();
    }
    workCv_.notify_all();

    // Coordinator loop: wait for completion and escalate to local
    // fallback when every breaker is open. Attempts are
    // deadline-bounded (serve::Client), retries are capped, and
    // all-dead abandons the rest, so this loop always terminates.
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!doneCv_.wait_for(lock, std::chrono::milliseconds(5),
                                 [&] { return outstanding_ == 0; })) {
            if (!allBreakersOpen())
                continue;
            // Every worker is (believed) dead: stop queueing and let
            // the local path absorb whatever has not completed. Tasks
            // still in flight settle on their own within a deadline.
            for (auto &task : tasks) {
                if (!task->done && !task->failed && !task->inflight)
                    failTask(task);
            }
        }
        // Only failed tasks can still sit in the queue.
        queue_.clear();
    }

    // The context call resolves every index: remote results are memo
    // hits, exhausted batches simulate locally here. Merging by index
    // makes the sourcing invisible — output order and values are those
    // of an all-local run.
    return opts_.simpoint ? ctx_.simulateSimPointBatch(indices)
                          : ctx_.simulateBatch(indices);
}

// must hold mu_
void
RemoteDispatcher::failTask(const std::shared_ptr<Task> &task)
{
    task->failed = true;
    --outstanding_;
    counters_.fallbacks.fetch_add(1);
    obs::MetricsRegistry::global().add(RemoteMetrics::get().fallbacks);
    doneCv_.notify_all();
}

// ------------------------------------------------------- endpoint threads

void
RemoteDispatcher::workerLoop(size_t wi)
{
    auto &w = *workers_[wi];
    auto &registry = obs::MetricsRegistry::global();
    const auto &rm = RemoteMetrics::get();

    for (;;) {
        std::shared_ptr<Task> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait_for(lock, std::chrono::milliseconds(5), [&] {
                return exiting_ || !queue_.empty();
            });
            if (exiting_)
                return;
            if (!w.open.load(std::memory_order_relaxed)) {
                const uint64_t now = nowNs();
                for (auto it = queue_.begin(); it != queue_.end();) {
                    if ((*it)->failed) {
                        it = queue_.erase(it);
                    } else if ((*it)->notBeforeNs > now) {
                        ++it;  // backing off
                    } else {
                        task = *it;
                        queue_.erase(it);
                        task->inflight = true;
                        break;
                    }
                }
            }
        }

        if (!task) {
            // Breaker open (or nothing due): half-open probe on its
            // schedule, then yield briefly so this loop stays cold.
            if (w.open.load(std::memory_order_relaxed)) {
                const uint64_t now = nowNs();
                if (now - w.lastProbeNs >= kProbeIntervalMs * 1000000ull) {
                    w.lastProbeNs = now;
                    try {
                        if (!w.connected) {
                            w.client.connect(w.ep.host, w.ep.port);
                            w.connected = true;
                        }
                        w.client.ping();
                        // The worker answered: close the breaker and
                        // resume taking real traffic.
                        w.consecutiveFailures.store(0);
                        w.open.store(false);
                    } catch (const std::exception &) {
                        w.connected = false;
                        w.client.close();
                    }
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
            continue;
        }

        Outcome outcome = Outcome::Other;
        try {
            outcome = attempt(wi, task) ? Outcome::Ok : Outcome::Other;
        } catch (const serve::ServeError &e) {
            outcome = e.code() == serve::ErrCode::Timeout
                ? Outcome::Timeout
                : (e.code() == serve::ErrCode::Disconnected
                       ? Outcome::Disconnected
                       : Outcome::Other);
        } catch (const std::exception &) {
            outcome = Outcome::Other;
        }

        if (outcome != Outcome::Ok) {
            w.connected = false;
            w.client.close();
            const uint32_t fails =
                w.consecutiveFailures.fetch_add(1) + 1;
            if (fails >= opts_.breakerThreshold) {
                w.open.store(true);
                w.lastProbeNs = nowNs();
            }
        }

        {
            std::lock_guard<std::mutex> lock(mu_);
            task->inflight = false;
            if (outcome == Outcome::Ok) {
                task->done = true;
                --outstanding_;
                doneCv_.notify_all();
            } else {
                ++task->attempt;
                if (task->attempt >= opts_.maxAttempts) {
                    failTask(task);
                } else {
                    counters_.retries.fetch_add(1);
                    registry.add(rm.retries);
                    if (outcome == Outcome::Disconnected) {
                        // The worker died with this batch in flight;
                        // it goes back on the queue for someone else.
                        counters_.redispatches.fetch_add(1);
                        registry.add(rm.redispatches);
                    }
                    const int delay = backoffDelayMs(
                        kBackoffSeed, task->key, task->attempt,
                        opts_.backoffBaseMs, opts_.backoffCapMs);
                    task->notBeforeNs = nowNs() +
                        static_cast<uint64_t>(delay) * 1000000ull;
                    queue_.push_back(task);
                }
            }
        }
        workCv_.notify_all();
    }
}

bool
RemoteDispatcher::attempt(size_t wi, const std::shared_ptr<Task> &task)
{
    auto &w = *workers_[wi];
    auto &registry = obs::MetricsRegistry::global();
    const auto &rm = RemoteMetrics::get();
    counters_.dispatched.fetch_add(1);
    registry.add(rm.dispatched);

    // Client-side chaos: a dropped connection, keyed per batch so the
    // decision is deterministic at any thread count.
    if (util::FaultInjector::global().shouldFail("remote.conn.drop",
                                                 task->key)) {
        w.connected = false;
        w.client.close();
        throw serve::ServeError(serve::ErrCode::Disconnected,
                                "injected connection drop");
    }

    const uint64_t t0 = nowNs();
    if (!w.connected) {
        w.client.connect(w.ep.host, w.ep.port);
        w.connected = true;
    }
    serve::SimulateBatchRequest req;
    req.study = static_cast<uint8_t>(ctx_.kind());
    req.app = ctx_.app();
    req.traceLength = ctx_.trace().size();
    req.simpoint = opts_.simpoint;
    req.indices = task->indices;
    const serve::SimulateBatchReply reply = w.client.simulateBatch(req);
    if (reply.simpoint != opts_.simpoint)
        throw serve::ServeError(serve::ErrCode::Internal,
                                "reply mode does not match the request");

    w.consecutiveFailures.store(0);
    w.open.store(false);

    if (reply.simpoint) {
        for (size_t i = 0; i < task->indices.size(); ++i)
            ctx_.injectSimPointEstimate(task->indices[i], reply.ipc[i]);
    } else {
        for (size_t i = 0; i < task->indices.size(); ++i)
            ctx_.injectResult(task->indices[i], reply.results[i]);
    }
    counters_.completed.fetch_add(1);
    registry.add(rm.completed);

    const uint64_t wall = nowNs() - t0;
    registry.observe(rm.batchWallNs, wall);
    return true;
}

} // namespace remote
} // namespace dse
