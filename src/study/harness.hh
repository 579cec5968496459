/**
 * @file
 * Study harness: binds an application trace to a study's design
 * space, memoizes simulations by design-point index, and provides the
 * evaluation utilities the benchmarks share (holdout construction,
 * true-error measurement, learning-curve sweeps).
 */

#ifndef DSE_STUDY_HARNESS_HH
#define DSE_STUDY_HARNESS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ml/cross_validation.hh"
#include "ml/encoding.hh"
#include "sim/core.hh"
#include "simpoint/simpoint.hh"
#include "study/journal.hh"
#include "study/spaces.hh"
#include "workload/trace.hh"

namespace dse {
namespace study {

/**
 * How a design point is simulated. A SimPoint estimate (Section 5.3)
 * simulates only the application's representative intervals, and is
 * calibrated once per application against one full simulation of a
 * reference configuration, which removes the constant bias a fixed
 * interval choice carries on short traces.
 */
enum class Fidelity
{
    Detailed,
    SimPoint,
};

/**
 * One (study, application) pair: the design space, the application's
 * trace, and a memoized simulator keyed by design-point index.
 *
 * Simulations run with warmed caches/predictor (steady state; see
 * SimOptions::warmCaches) so short synthetic traces behave like the
 * paper's long MinneSPEC runs.
 *
 * Simulation has one entry point per fidelity, and every caller
 * batches: simulateBatch (IPC) and simulateFullBatch (detailed
 * SimResult records).
 *
 * Thread safety: the memoization caches are sharded by index with one
 * mutex per shard, so the batch calls may be called concurrently.
 * Simulation itself is a pure function of (trace, config), so
 * concurrent evaluation is bit-identical to serial regardless of
 * thread count or interleaving.
 *
 * Crash safety: with a journal attached (explicit path, or the
 * DSE_JOURNAL environment variable — "{study}" and "{app}"
 * placeholders expand so one setting covers multi-app sweeps), every
 * detailed simulation result is appended to an append-only
 * checksummed journal as it completes, and construction replays an
 * existing journal into the memo cache. A killed campaign resumed
 * against the same journal re-simulates nothing, and replayed
 * results are bit-identical to freshly simulated ones (see
 * journal.hh and DESIGN.md, "Failure model & recovery").
 */
class StudyContext
{
  public:
    /**
     * @param kind which design space
     * @param app benchmark name (one of workload::benchmarkNames())
     * @param trace_length dynamic trace length (0 = library default)
     * @param journal_path write-ahead journal file; "" consults the
     *        DSE_JOURNAL environment variable (unset = no journal)
     */
    StudyContext(StudyKind kind, const std::string &app,
                 size_t trace_length = 0,
                 const std::string &journal_path = "");

    const ml::DesignSpace &space() const { return space_; }
    StudyKind kind() const { return kind_; }
    const std::string &app() const { return app_; }
    const workload::Trace &trace() const { return trace_; }

    /**
     * Simulate a batch of design points; @return each one's IPC, in
     * input order. Distinct points resolve concurrently on the global
     * ThreadPool, each as one memo lookup or one execution; duplicates
     * cost nothing extra. A lone distinct point resolves on the
     * calling thread without touching the pool.
     */
    std::vector<double>
    simulateBatch(const std::vector<uint64_t> &indices,
                  Fidelity fidelity = Fidelity::Detailed);

    /** Detailed simulateBatch returning each point's full result. */
    std::vector<sim::SimResult>
    simulateFullBatch(const std::vector<uint64_t> &indices);

    /** Batch-of-one wrappers, kept for the layer probe
     *  (perfbench/probe), which times serial per-point simulation
     *  against simulateBatch. Every other caller batches. */
    double simulateIpc(uint64_t i) { return simulateBatch({i})[0]; }
    double
    simulateSimPointIpc(uint64_t i)
    {
        return simulateBatch({i}, Fidelity::SimPoint)[0];
    }

    /** Machine configuration of a design point. */
    sim::MachineConfig config(uint64_t index) const;

    /// @name Remote-result injection (dse::remote::RemoteDispatcher).
    /// Simulation is a pure function of (trace, config), so a result
    /// computed by a worker with the same (study, app, trace length)
    /// identity is bit-identical to a local one; injecting it into the
    /// memo cache makes remote sourcing invisible to every consumer.
    /// Injected results are journaled (they are real results) but do
    /// NOT count toward simulationsExecuted() — that counter stays
    /// "work this process did".
    /// @{

    /** Merge a remotely computed detailed result into the memo cache.
     *  A concurrent local result for the same index wins harmlessly
     *  (the values are identical by purity). */
    void injectResult(uint64_t index, const sim::SimResult &result);

    /** Merge a remotely computed calibrated SimPoint IPC estimate. */
    void injectSimPointEstimate(uint64_t index, double ipc);

    /** The distinct indices of @p indices with no memoized value at
     *  @p fidelity, in first-occurrence order: what a remote
     *  dispatch still has to fetch. */
    std::vector<uint64_t> missing(const std::vector<uint64_t> &indices,
                                  Fidelity fidelity) const;

    /// @}

    /** Number of distinct detailed simulations performed so far
     *  (memoized results, including any replayed from a journal). */
    size_t simulationsRun() const { return detailed_.size(); }

    /** Detailed simulations actually *executed* by this context —
     *  excludes journal-replayed results, so a resumed study reports
     *  0 until it reaches a point its journal has not seen. */
    size_t simulationsExecuted() const
    {
        return executed_.load(std::memory_order_relaxed);
    }

    /** True if a write-ahead journal is attached. */
    bool journalActive() const { return journal_ != nullptr; }

    /** What construction replayed from the journal (zeros if none). */
    const SimJournal::ReplayStats &journalStats() const
    {
        return journalStats_;
    }

    /** Instructions per detailed simulation (trace length). */
    size_t instructionsPerSimulation() const { return trace_.size(); }

    /**
     * The application's SimPoint selection (computed once per
     * context, configuration-independent, as in the SimPoint tool).
     */
    const simpoint::SimPoints &simPoints();

    /** Detailed instructions per SimPoint estimate (including the
     *  half-interval detailed warm-up each representative pays). */
    size_t
    simPointInstructionsPerEstimate()
    {
        const auto &sp = simPoints();
        return sp.intervals.size() *
            (sp.intervalLength + sp.intervalLength / 2);
    }

  private:
    /** Memo keyed by design-point index: 16 mutex-guarded shards.
     *  Values are never mutated after insertion, and unordered_map
     *  never invalidates references, so a returned reference stays
     *  valid under concurrent inserts. */
    template <typename V>
    class Memo
    {
      public:
        /** The memoized value of @p index, or nullptr. */
        const V *
        find(uint64_t index) const
        {
            Shard &s = shards_[index % shards_.size()];
            std::lock_guard<std::mutex> lock(s.mu);
            const auto it = s.map.find(index);
            return it == s.map.end() ? nullptr : &it->second;
        }

        /** Memoize @p value unless @p index has one; return the
         *  memoized value. @p onInsert runs for the winning insert
         *  only, under the shard lock. */
        const V &
        insert(uint64_t index, V value,
               const std::function<void(const V &)> &onInsert = nullptr)
        {
            Shard &s = shards_[index % shards_.size()];
            std::lock_guard<std::mutex> lock(s.mu);
            const auto [it, fresh] = s.map.emplace(index, std::move(value));
            if (fresh && onInsert)
                onInsert(it->second);
            return it->second;
        }

        size_t
        size() const
        {
            size_t n = 0;
            for (Shard &s : shards_) {
                std::lock_guard<std::mutex> lock(s.mu);
                n += s.map.size();
            }
            return n;
        }

      private:
        struct Shard
        {
            std::mutex mu;
            std::unordered_map<uint64_t, V> map;
        };
        mutable std::array<Shard, 16> shards_;
    };

    /** One detailed point: a counted memo hit or one execution. */
    const sim::SimResult &resolveDetailed(uint64_t index);

    /** Memoize a detailed result, journaling the winning insert. */
    const sim::SimResult &memoizeResult(uint64_t index,
                                        sim::SimResult result);

    /** Calibrate (once) and return the SimPoint IPC scale factor. */
    double simPointScale();

    StudyKind kind_;
    std::string app_;
    ml::DesignSpace space_;
    workload::Trace trace_;
    Memo<sim::SimResult> detailed_;
    Memo<double> simPoint_;
    std::mutex simPointMu_;  ///< guards simPoints_ / simPointScale_
    std::unique_ptr<simpoint::SimPoints> simPoints_;
    double simPointScale_ = 0.0;  ///< lazily calibrated; 0 = not yet
    std::unique_ptr<SimJournal> journal_;
    SimJournal::ReplayStats journalStats_;
    std::atomic<size_t> executed_{0};  ///< non-replayed simulations
};

/**
 * A random holdout of design points for measuring *true* model error,
 * disjoint from a set of excluded (training) indices.
 *
 * The paper measures error over every untrained point of the full
 * space; a uniform random holdout estimates the same mean/SD
 * unbiasedly at a fraction of the simulation cost (DESIGN.md,
 * substitution table). Pass n >= space size to get the full space.
 */
std::vector<uint64_t> holdoutIndices(const ml::DesignSpace &space,
                                     const std::vector<uint64_t> &excluded,
                                     size_t n, uint64_t seed);

/** True mean/SD of percentage error of a model over given points. */
struct TrueError
{
    double meanPct = 0.0;
    double sdPct = 0.0;
};

/**
 * Measure a trained ensemble against detailed simulation on the given
 * evaluation points (simulations are memoized in the context).
 */
TrueError measureTrueError(StudyContext &ctx, const ml::Ensemble &model,
                           const std::vector<uint64_t> &eval_points);

/**
 * Shared benchmark-harness scope knobs (read from the environment;
 * see DESIGN.md "Per-experiment index").
 */
struct BenchScope
{
    std::vector<std::string> apps;  ///< applications to run
    size_t evalPoints = 1000;       ///< holdout size (0 = full space)
    size_t traceLength = 0;         ///< 0 = library default
    double maxSamplePct = 4.5;      ///< learning-curve extent (% of space)
    size_t batch = 50;              ///< training-set increment
    size_t threads = 1;             ///< effective worker thread count

    /** Read DSE_APPS / DSE_EVAL_POINTS / DSE_THREADS / DSE_* with
     *  these defaults (threads resolves DSE_THREADS against the
     *  hardware, matching what the global ThreadPool will use). */
    static BenchScope fromEnv(const std::vector<std::string> &default_apps);
};

} // namespace study
} // namespace dse

#endif // DSE_STUDY_HARNESS_HH
