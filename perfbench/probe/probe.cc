/**
 * @file
 * Layer probe for the study-level benchmark: times direct calls into
 * each layer's public entry point on one (study, app) pair, with the
 * design points drawn from a seeded generator, and prints one flat
 * JSON object of per-layer figures on stdout.
 *
 * Every figure is a median over a few repetitions so one descheduled
 * slice does not set it. The probe also cross-checks the batch and
 * serial simulation paths: their IPCs must be bit-identical, or the
 * probe reports "check": "fail".
 *
 * Usage:
 *   dse_layer_probe --study=memory --app=mcf --seed=7 \
 *                   --work-dir=.bench_build/perfbench [--model=m.model]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "ml/cross_validation.hh"
#include "ml/io.hh"
#include "study/harness.hh"
#include "util/metrics.hh"
#include "workload/generator.hh"

using namespace dse;
using Clock = std::chrono::steady_clock;

namespace {

struct Options
{
    study::StudyKind kind = study::StudyKind::Processor;
    std::string app = "gzip";
    uint64_t seed = 1;
    std::string workDir = ".";
    std::string model;  ///< serve this file's ensemble instead
};

/** Serial points timed one by one, then simulated again as a batch. */
constexpr size_t kSimPoints = 16;
/** Rows of the training set (kSimPoints plus batch-simulated extras). */
constexpr size_t kTrainRows = 32;
/** Points per encode / score sweep. */
constexpr size_t kSweepPoints = 32768;
/** Single-point predictions per timed block. */
constexpr size_t kPredictCalls = 4000;
constexpr int kReps = 3;

double
seconds(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median wall seconds of @p reps calls of @p fn. */
double
timeMedian(int reps, const std::function<void()> &fn)
{
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        fn();
        t.push_back(seconds(start));
    }
    return median(t);
}

/** SplitMix64: the probe's own seeded stream of design points. */
uint64_t
splitMix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<uint64_t>
seededPoints(uint64_t seed, uint64_t space, size_t n, bool distinct)
{
    uint64_t state = seed;
    std::vector<uint64_t> out;
    std::unordered_set<uint64_t> seen;
    while (out.size() < n) {
        const uint64_t i = splitMix(state) % space;
        if (!distinct || seen.insert(i).second)
            out.push_back(i);
    }
    return out;
}

bool
parse(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--study" && value == "memory") {
            opts.kind = study::StudyKind::MemorySystem;
        } else if (key == "--study" && value == "processor") {
            opts.kind = study::StudyKind::Processor;
        } else if (key == "--app") {
            opts.app = value;
        } else if (key == "--seed") {
            opts.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--work-dir") {
            opts.workDir = value;
        } else if (key == "--model") {
            opts.model = value;
        } else {
            std::fprintf(stderr, "probe: bad argument '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    return true;
}

int
run(const Options &opts)
{
    // Counters give the epoch count behind ns_per_epoch_row; they
    // touch no model arithmetic, so results are unchanged.
    obs::setMetricsEnabled(true);
    auto &registry = obs::MetricsRegistry::global();
    bool ok = true;

    const double traceGenS = timeMedian(kReps, [&] {
        volatile size_t sink =
            workload::generateBenchmarkTrace(opts.app).size();
        (void)sink;
    });

    // Simulation: serial simulateIpc on a fresh context, then the
    // same points through simulateBatch on another fresh context.
    study::StudyContext serialCtx(opts.kind, opts.app);
    const auto &space = serialCtx.space();
    const auto points =
        seededPoints(opts.seed, space.size(), kTrainRows, true);
    const std::vector<uint64_t> simPoints(points.begin(),
                                          points.begin() + kSimPoints);
    std::vector<double> serialIpc;
    const auto serialStart = Clock::now();
    for (uint64_t i : simPoints)
        serialIpc.push_back(serialCtx.simulateIpc(i));
    const double serialS = seconds(serialStart);
    const double nsPerInstr = serialS * 1e9 /
        static_cast<double>(kSimPoints *
                            serialCtx.instructionsPerSimulation());

    study::StudyContext batchCtx(opts.kind, opts.app);
    const auto batchStart = Clock::now();
    const auto batchIpc = batchCtx.simulateBatch(simPoints);
    const double batchS = seconds(batchStart);
    if (batchIpc != serialIpc) {
        std::fprintf(stderr, "probe: simulateBatch differs from "
                             "serial simulateIpc\n");
        ok = false;
    }
    const auto ipc = batchCtx.simulateBatch(points);

    // SimPoint: selection on a fresh context, then per-estimate cost
    // after the one-off calibration simulation.
    study::StudyContext spCtx(opts.kind, opts.app);
    const auto selectStart = Clock::now();
    spCtx.simPoints();
    const double selectS = seconds(selectStart);
    spCtx.simulateSimPointIpc(points[0]);
    const auto estimateStart = Clock::now();
    for (size_t i = 1; i <= kSimPoints; ++i)
        spCtx.simulateSimPointIpc(points[i]);
    const double estimateMs =
        seconds(estimateStart) * 1e3 / static_cast<double>(kSimPoints);

    // Training: one cross-validated ensemble on the seeded points, at
    // dse_explore's default epoch budget.
    ml::DataSet data;
    for (size_t i = 0; i < points.size(); ++i)
        data.add(space.encodeIndex(points[i]), ipc[i]);
    ml::TrainOptions topts;
    topts.maxEpochs = 5000;
    registry.reset();
    std::vector<ml::Ensemble> trained;
    const double trainS = timeMedian(kReps, [&] {
        trained.push_back(ml::trainEnsemble(data, topts));
    });
    const auto snap = registry.snapshot();
    const auto *fold = snap.histogram("train.fold_wall_ns");
    const double epochRows =
        static_cast<double>(snap.counter("train.epochs")) *
        static_cast<double>(data.size());
    const double nsPerEpochRow =
        fold && epochRows > 0 ? static_cast<double>(fold->sum) / epochRows
                              : 0.0;

    // Model I/O: the served model when given, else the trained one.
    std::string modelPath = opts.model;
    if (modelPath.empty()) {
        modelPath = opts.workDir + "/probe.model";
        ml::saveEnsemble(modelPath, trained.front());
    }
    std::vector<ml::Ensemble> loaded;
    const double loadMs = 1e3 * timeMedian(9, [&] {
        loaded.clear();
        loaded.push_back(ml::loadEnsemble(modelPath));
    });
    const ml::Ensemble &model = loaded.front();

    // Encoding and committee scoring over a seeded sweep.
    const auto sweep =
        seededPoints(opts.seed ^ 0x5eedULL, space.size(), kSweepPoints,
                     false);
    const size_t width = static_cast<size_t>(space.encodedWidth());
    std::vector<double> encoded(width * kSweepPoints);
    const double encodeS = timeMedian(kReps, [&] {
        for (size_t i = 0; i < kSweepPoints; ++i)
            space.encodeIndexInto(sweep[i], encoded.data() + i * width);
    });
    const ml::Ensemble &scorer = trained.front();
    const double scoreS = timeMedian(kReps, [&] {
        volatile double sink =
            scorer.memberSpreadIndices(space, sweep).back();
        (void)sink;
    });

    // Single-point prediction, the call a serve request makes.
    double predicted = 0.0;
    std::vector<double> blocks;
    for (int b = 0; b < 5; ++b) {
        const auto start = Clock::now();
        for (size_t i = 0; i < kPredictCalls; ++i)
            model.predictBatch(encoded.data() + (i % 64) * width, 1,
                               &predicted);
        blocks.push_back(seconds(start) * 1e6 /
                         static_cast<double>(kPredictCalls));
    }

    const double sweepN = static_cast<double>(kSweepPoints);
    std::printf(
        "{\"check\": \"%s\","
        " \"workload.trace_gen_s\": %.9g,"
        " \"sim.ns_per_instr\": %.9g,"
        " \"study.batch_speedup\": %.9g,"
        " \"simpoint.select_s\": %.9g,"
        " \"simpoint.estimate_ms\": %.9g,"
        " \"ml.train.s_per_ensemble\": %.9g,"
        " \"ml.train.ns_per_epoch_row\": %.9g,"
        " \"ml.encode.ns_per_point\": %.9g,"
        " \"ml.score.ns_per_point\": %.9g,"
        " \"ml.predict.point_us\": %.9g,"
        " \"ml.io.load_ms\": %.9g}\n",
        ok ? "ok" : "fail", traceGenS, nsPerInstr, serialS / batchS,
        selectS, estimateMs, trainS, nsPerEpochRow,
        encodeS * 1e9 / sweepN, scoreS * 1e9 / sweepN, median(blocks),
        loadMs);
    return ok ? 0 : 5;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parse(argc, argv, opts))
        return 1;
    try {
        return run(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "probe: error: %s\n", e.what());
        return 3;
    }
}
