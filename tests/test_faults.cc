/**
 * @file
 * Fault-injection and recovery tests: every failure-containment path
 * in the study pipeline is exercised deterministically — journal
 * kill-and-resume replay, torn tails and corrupt records, fold
 * retry and graceful ensemble degradation, torn/corrupt model files,
 * and exception propagation out of the thread pool.
 *
 * Suites are named Faults* (the tsan preset filter matches them) and
 * the binary carries the `faults` ctest label, so `ctest -L faults`
 * and the faults-tsan / faults-asan presets run exactly this file.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "ml/cross_validation.hh"
#include "ml/io.hh"
#include "ml/multitask.hh"
#include "study/harness.hh"
#include "study/journal.hh"
#include "util/fault.hh"
#include "util/thread_pool.hh"

namespace dse {
namespace {

/** Fresh scratch path under /tmp, clobbering any previous run. */
std::string
tmpPath(const std::string &name)
{
    std::string path = "/tmp/dse_faults_" + name;
    std::remove(path.c_str());
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Base fixture: every test starts and ends with no faults armed. */
class FaultsBase : public ::testing::Test
{
  protected:
    void SetUp() override { util::FaultInjector::global().reset(); }
    void TearDown() override { util::FaultInjector::global().reset(); }
};

using FaultsInjector = FaultsBase;
using FaultsJournal = FaultsBase;
using FaultsTraining = FaultsBase;
using FaultsIo = FaultsBase;
using FaultsPool = FaultsBase;

// ---------------------------------------------------------------------
// FaultInjector semantics.
// ---------------------------------------------------------------------

TEST_F(FaultsInjector, RejectsMalformedSpecs)
{
    util::FaultInjector fi;
    EXPECT_THROW(fi.configure("nonsense"), std::invalid_argument);
    EXPECT_THROW(fi.configure("site:notanumber:1"),
                 std::invalid_argument);
    EXPECT_THROW(fi.configure("site:2:1"), std::invalid_argument);
    EXPECT_THROW(fi.configure("site:-0.5:1"), std::invalid_argument);
    EXPECT_THROW(fi.configure("site:0.5:xyz"), std::invalid_argument);
    EXPECT_THROW(fi.configure(":0.5:1"), std::invalid_argument);
    EXPECT_NO_THROW(fi.configure(""));
    EXPECT_NO_THROW(fi.configure("a:0.5:1,b:1:2"));
}

TEST_F(FaultsInjector, DecisionsAreDeterministicPerKey)
{
    util::FaultInjector a, b;
    a.configure("x:0.3:42");
    b.configure("x:0.3:42");
    size_t fired = 0;
    for (uint64_t key = 0; key < 1000; ++key) {
        const bool fa = a.shouldFail("x", key);
        EXPECT_EQ(fa, b.shouldFail("x", key)) << key;
        fired += fa;
    }
    // ~30% of keys fire; well away from 0% and 100%.
    EXPECT_GT(fired, 200u);
    EXPECT_LT(fired, 400u);
    EXPECT_EQ(a.injected("x"), fired);
    EXPECT_EQ(a.injected("unknown-site"), 0u);
}

TEST_F(FaultsInjector, RateZeroNeverFiresRateOneAlwaysFires)
{
    util::FaultInjector fi;
    fi.configure("off:0:1,on:1:1");
    for (uint64_t key = 0; key < 200; ++key) {
        EXPECT_FALSE(fi.shouldFail("off", key));
        EXPECT_TRUE(fi.shouldFail("on", key));
        EXPECT_FALSE(fi.shouldFail("unconfigured", key));
    }
    fi.reset();
    EXPECT_FALSE(fi.shouldFail("on", 0));
    EXPECT_FALSE(fi.active());
}

// ---------------------------------------------------------------------
// Crash-safe simulation journal.
// ---------------------------------------------------------------------

constexpr size_t kTraceLen = 4096;

std::vector<uint64_t>
sampleIndices()
{
    return {0, 7, 42, 123, 999, 4242, 5000, 8008, 12345, 15000, 23039};
}

TEST_F(FaultsJournal, KillAndResumeReplaysBitIdentical)
{
    const std::string path = tmpPath("resume.journal");
    const auto indices = sampleIndices();

    // "Campaign" one: simulate N points, then die (scope exit).
    std::vector<sim::SimResult> first;
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen, path);
        ASSERT_TRUE(ctx.journalActive());
        EXPECT_EQ(ctx.journalStats().replayed, 0u);
        for (uint64_t idx : indices)
            first.push_back(ctx.simulateFullBatch({idx})[0]);
        EXPECT_EQ(ctx.simulationsExecuted(), indices.size());
    }

    // Resumed campaign: every record replays, zero re-simulations,
    // and every field of every result is bit-identical.
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen, path);
    EXPECT_EQ(ctx.journalStats().replayed, indices.size());
    EXPECT_EQ(ctx.journalStats().rejected, 0u);
    EXPECT_FALSE(ctx.journalStats().tornTail);

    const auto ipc = ctx.simulateBatch(indices);
    EXPECT_EQ(ctx.simulationsExecuted(), 0u);
    for (size_t i = 0; i < indices.size(); ++i) {
        const sim::SimResult r = ctx.simulateFullBatch({indices[i]})[0];
        const auto &f = first[i];
        EXPECT_EQ(ipc[i], f.ipc);
        EXPECT_EQ(r.cycles, f.cycles);
        EXPECT_EQ(r.instructions, f.instructions);
        EXPECT_EQ(r.ipc, f.ipc);
        EXPECT_EQ(r.l1dMissRate, f.l1dMissRate);
        EXPECT_EQ(r.l2MissRate, f.l2MissRate);
        EXPECT_EQ(r.l1iMissRate, f.l1iMissRate);
        EXPECT_EQ(r.branchMispredictRate, f.branchMispredictRate);
        EXPECT_EQ(r.l1dAccesses, f.l1dAccesses);
        EXPECT_EQ(r.l1dMisses, f.l1dMisses);
        EXPECT_EQ(r.l2Accesses, f.l2Accesses);
        EXPECT_EQ(r.l2Misses, f.l2Misses);
        EXPECT_EQ(r.branches, f.branches);
        EXPECT_EQ(r.branchMispredicts, f.branchMispredicts);
    }
    EXPECT_EQ(ctx.simulationsExecuted(), 0u);
    EXPECT_EQ(ctx.simulationsRun(), indices.size());
}

TEST_F(FaultsJournal, ToleratesTornTailAndRepairsIt)
{
    const std::string path = tmpPath("torn.journal");
    const std::vector<uint64_t> indices = {1, 2, 3, 4, 5};
    double last_ipc = 0.0;
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen, path);
        for (uint64_t idx : indices)
            last_ipc = ctx.simulateBatch({idx})[0];
    }

    // Tear the tail: drop the last 10 bytes, as a crash mid-append
    // would.
    const std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 10u);
    writeFile(path, bytes.substr(0, bytes.size() - 10));

    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen, path);
        EXPECT_EQ(ctx.journalStats().replayed, indices.size() - 1);
        EXPECT_TRUE(ctx.journalStats().tornTail);
        // The torn point re-simulates (once) and re-journals.
        EXPECT_EQ(ctx.simulateBatch({5})[0], last_ipc);
        EXPECT_EQ(ctx.simulationsExecuted(), 1u);
    }

    // The repaired journal is whole again.
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen, path);
    EXPECT_EQ(ctx.journalStats().replayed, indices.size());
    EXPECT_FALSE(ctx.journalStats().tornTail);
}

TEST_F(FaultsJournal, RejectsChecksumCorruptRecordButKeepsTheRest)
{
    const std::string path = tmpPath("corrupt.journal");
    const std::vector<uint64_t> indices = {10, 20, 30, 40};
    std::vector<double> ipc;
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen, path);
        for (uint64_t idx : indices)
            ipc.push_back(ctx.simulateBatch({idx})[0]);
    }

    // Flip one byte inside the second record's payload.
    std::string bytes = readFile(path);
    const size_t header =
        bytes.size() - indices.size() * study::SimJournal::kRecordSize;
    bytes[header + study::SimJournal::kRecordSize + 20] ^= 0x01;
    writeFile(path, bytes);

    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen, path);
    EXPECT_EQ(ctx.journalStats().replayed, indices.size() - 1);
    EXPECT_EQ(ctx.journalStats().rejected, 1u);
    // Records after the corrupt one still replayed (fixed-size
    // resync), and the rejected point re-simulates to the same value.
    EXPECT_EQ(ctx.simulateBatch({30})[0], ipc[2]);
    EXPECT_EQ(ctx.simulationsExecuted(), 0u);
    EXPECT_EQ(ctx.simulateBatch({20})[0], ipc[1]);
    EXPECT_EQ(ctx.simulationsExecuted(), 1u);
}

TEST_F(FaultsJournal, RefusesForeignAndMismatchedFiles)
{
    const std::string garbage = tmpPath("garbage.journal");
    writeFile(garbage, "this is not a journal, not even close");
    EXPECT_THROW(study::StudyContext(study::StudyKind::MemorySystem,
                                     "gzip", kTraceLen, garbage),
                 std::runtime_error);

    const std::string path = tmpPath("identity.journal");
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen, path);
    }
    // Different app, study, or trace length must refuse to replay.
    EXPECT_THROW(study::StudyContext(study::StudyKind::MemorySystem,
                                     "mcf", kTraceLen, path),
                 std::runtime_error);
    EXPECT_THROW(study::StudyContext(study::StudyKind::Processor, "gzip",
                                     kTraceLen, path),
                 std::runtime_error);
    EXPECT_THROW(study::StudyContext(study::StudyKind::MemorySystem,
                                     "gzip", kTraceLen * 2, path),
                 std::runtime_error);
}

TEST_F(FaultsJournal, EnvVarAttachesWithPlaceholders)
{
    const std::string templ = tmpPath("env_{study}_{app}.journal");
    const std::string expanded = tmpPath("env_memory-system_gzip.journal");
    ASSERT_EQ(setenv("DSE_JOURNAL", templ.c_str(), 1), 0);
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen);
        EXPECT_TRUE(ctx.journalActive());
        ctx.simulateBatch({3});
    }
    unsetenv("DSE_JOURNAL");
    EXPECT_EQ(::access(expanded.c_str(), F_OK), 0);

    // Explicit path resumes what the env-attached run journaled.
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen, expanded);
    EXPECT_EQ(ctx.journalStats().replayed, 1u);
}

TEST_F(FaultsJournal, InjectedTornAppendIsRecoveredOnResume)
{
    const std::string path = tmpPath("injected_torn.journal");
    util::FaultInjector::global().configure("journal:1:1");
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen, path);
        EXPECT_THROW(ctx.simulateBatch({9}), std::runtime_error);
    }
    util::FaultInjector::global().reset();

    // The half-written record reads as a torn tail; the resumed
    // campaign truncates it and re-simulates cleanly.
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen, path);
    EXPECT_EQ(ctx.journalStats().replayed, 0u);
    EXPECT_TRUE(ctx.journalStats().tornTail);
    EXPECT_GT(ctx.simulateBatch({9})[0], 0.0);
    EXPECT_EQ(ctx.simulationsExecuted(), 1u);
}

TEST_F(FaultsJournal, InjectedSimFailurePropagatesAndRecovers)
{
    util::FaultInjector::global().configure("sim:1:1");
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen);
    // Both a batch of one (resolved on the calling thread) and a
    // pooled batch surface the failure as an exception (no
    // std::terminate, no hang).
    EXPECT_THROW(ctx.simulateBatch({5}), std::runtime_error);
    EXPECT_THROW(ctx.simulateBatch({1, 2, 3, 4, 5, 6, 7, 8}),
                 std::runtime_error);
    EXPECT_EQ(ctx.simulationsExecuted(), 0u);

    util::FaultInjector::global().reset();
    EXPECT_GT(ctx.simulateBatch({5})[0], 0.0);
    EXPECT_EQ(ctx.simulationsExecuted(), 1u);
}

// ---------------------------------------------------------------------
// Training divergence, retry, and graceful degradation.
// ---------------------------------------------------------------------

ml::DataSet
smallDataSet()
{
    Rng rng(3);
    ml::DataSet data;
    for (int i = 0; i < 80; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        data.add({a, b}, 0.5 + 0.3 * a - 0.2 * b);
    }
    return data;
}

ml::TrainOptions
fastTrainOptions()
{
    ml::TrainOptions opts;
    opts.folds = 4;
    opts.maxEpochs = 200;
    opts.esInterval = 50;
    opts.patience = 3;
    return opts;
}

/**
 * A "fold" fault spec that fails exactly the first attempt of fold 0
 * under fastTrainOptions() (keys are fold*64 + attempt, so key 0 is
 * fold 0, attempt 0): the fold recovers on retry and the ensemble
 * stays whole. Empty if no seed in the search range qualifies.
 */
std::string
firstAttemptOfFold0Spec()
{
    for (int seed = 1; seed <= 64; ++seed) {
        const std::string spec = "fold:0.2:" + std::to_string(seed);
        util::FaultInjector fi;
        fi.configure(spec);
        if (fi.shouldFail("fold", 0) && !fi.shouldFail("fold", 1) &&
            !fi.shouldFail("fold", 64) && !fi.shouldFail("fold", 128) &&
            !fi.shouldFail("fold", 192)) {
            return spec;
        }
    }
    return "";
}

TEST_F(FaultsTraining, AnnFlagsNonFiniteTraining)
{
    ml::AnnParams params;
    Rng rng(1);
    ml::Ann net(2, 1, params, rng);
    EXPECT_FALSE(net.diverged());
    EXPECT_TRUE(net.finiteWeights());

    const double nan = std::numeric_limits<double>::quiet_NaN();
    net.train({nan, 0.5}, {0.5});
    EXPECT_TRUE(net.diverged());
}

TEST_F(FaultsTraining, InjectedDivergenceRetriesDeterministically)
{
    const auto data = smallDataSet();
    const auto opts = fastTrainOptions();

    // Find a fault seed where some but not all folds exhaust their
    // retries — the interesting degraded-but-usable regime. The
    // search is deterministic: same seeds, same outcome, every run.
    int found_seed = -1;
    for (int seed = 1; seed <= 32 && found_seed < 0; ++seed) {
        util::FaultInjector::global().configure(
            "fold:0.6:" + std::to_string(seed));
        try {
            const auto model = ml::trainEnsemble(data, opts);
            if (model.degraded())
                found_seed = seed;
        } catch (const std::runtime_error &) {
            // every fold diverged for this seed; keep looking
        }
    }
    ASSERT_GT(found_seed, 0);

    const std::string spec = "fold:0.6:" + std::to_string(found_seed);
    util::FaultInjector::global().configure(spec);
    const auto model = ml::trainEnsemble(data, opts);
    ASSERT_TRUE(model.degraded());
    ASSERT_GT(model.members(), 0u);
    ASSERT_LT(model.members(),
              static_cast<size_t>(opts.folds));
    EXPECT_EQ(model.warnings().size(),
              static_cast<size_t>(opts.folds) - model.members());
    for (const auto &w : model.warnings()) {
        EXPECT_GE(w.fold, 0);
        EXPECT_LT(w.fold, opts.folds);
        EXPECT_EQ(w.attempts, 1 + opts.foldRetries);
        EXPECT_FALSE(w.message.empty());
    }
    // The survivors predict finite, sane values.
    EXPECT_TRUE(std::isfinite(model.predict({0.3, 0.7})));
    EXPECT_TRUE(std::isfinite(model.estimate().meanPct));

    // Deterministic under DSE_FAULTS at any thread count: retrain at
    // 1 and 4 threads and compare everything, member weights
    // included, bit for bit.
    util::ThreadPool::resetGlobal(1);
    util::FaultInjector::global().configure(spec);
    const auto serial = ml::trainEnsemble(data, opts);
    util::ThreadPool::resetGlobal(4);
    util::FaultInjector::global().configure(spec);
    const auto parallel = ml::trainEnsemble(data, opts);
    util::ThreadPool::resetGlobal();

    ASSERT_EQ(serial.members(), model.members());
    ASSERT_EQ(parallel.members(), model.members());
    EXPECT_EQ(serial.estimate().meanPct, parallel.estimate().meanPct);
    EXPECT_EQ(serial.estimate().sdPct, parallel.estimate().sdPct);
    ASSERT_EQ(serial.warnings().size(), parallel.warnings().size());
    for (size_t i = 0; i < serial.warnings().size(); ++i)
        EXPECT_EQ(serial.warnings()[i].fold, parallel.warnings()[i].fold);
    for (size_t m = 0; m < serial.members(); ++m)
        EXPECT_EQ(serial.memberWeights(m), parallel.memberWeights(m));
}

TEST_F(FaultsTraining, DegradedEstimateIsWidened)
{
    const auto data = smallDataSet();
    const auto opts = fastTrainOptions();

    util::FaultInjector::global().reset();
    const auto healthy = ml::trainEnsemble(data, opts);
    ASSERT_FALSE(healthy.degraded());

    const std::string retry_spec = firstAttemptOfFold0Spec();
    ASSERT_FALSE(retry_spec.empty());
    util::FaultInjector::global().configure(retry_spec);
    const auto retried = ml::trainEnsemble(data, opts);
    EXPECT_FALSE(retried.degraded());
    EXPECT_EQ(retried.members(), static_cast<size_t>(opts.folds));
    // Folds 1..3 never saw a fault, so their members are identical
    // to the healthy run's; fold 0 retrained from a reseeded stream.
    for (int m = 1; m < opts.folds; ++m) {
        EXPECT_EQ(retried.memberWeights(static_cast<size_t>(m)),
                  healthy.memberWeights(static_cast<size_t>(m)));
    }
    EXPECT_NE(retried.memberWeights(0), healthy.memberWeights(0));

    // All folds failing is a hard error, not a silent empty model.
    util::FaultInjector::global().configure("fold:1:7");
    EXPECT_THROW(ml::trainEnsemble(data, opts), std::runtime_error);
}

TEST_F(FaultsTraining, MultiTaskFoldFaultsRetryThenThrow)
{
    // Multi-task folds run through trainEnsemble's fold loop, so they
    // share its fault site, retries and all-folds-failed error.
    Rng rng(3);
    ml::MultiTaskDataSet data;
    data.targetNames = {"ipc", "missRate"};
    for (int i = 0; i < 80; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        data.add({a, b}, {0.5 + 0.3 * a - 0.2 * b, 0.3 - 0.2 * a});
    }
    const auto opts = fastTrainOptions();

    const std::string retry_spec = firstAttemptOfFold0Spec();
    ASSERT_FALSE(retry_spec.empty());
    util::FaultInjector::global().configure(retry_spec);
    const auto retried = ml::trainMultiTaskEnsemble(data, opts);
    EXPECT_EQ(retried.members(), static_cast<size_t>(opts.folds));
    EXPECT_TRUE(std::isfinite(retried.predictPrimary({0.4, 0.6})));

    util::FaultInjector::global().configure("fold:1:7");
    EXPECT_THROW(ml::trainMultiTaskEnsemble(data, opts),
                 std::runtime_error);
}

TEST_F(FaultsTraining, FaultsOnOtherSitesLeaveTrainingBitIdentical)
{
    const auto data = smallDataSet();
    const auto opts = fastTrainOptions();
    util::FaultInjector::global().reset();
    const auto base = ml::trainEnsemble(data, opts);
    util::FaultInjector::global().configure("sim:1:1,save:1:1");
    const auto probed = ml::trainEnsemble(data, opts);
    for (size_t m = 0; m < base.members(); ++m)
        EXPECT_EQ(base.memberWeights(m), probed.memberWeights(m));
}

// ---------------------------------------------------------------------
// Durable model I/O.
// ---------------------------------------------------------------------

ml::Ensemble
smallTrainedEnsemble()
{
    return ml::trainEnsemble(smallDataSet(), fastTrainOptions());
}

TEST_F(FaultsIo, AtomicSaveRoundTripsAndLeavesNoTemp)
{
    const auto model = smallTrainedEnsemble();
    const std::string path = tmpPath("model.txt");
    ml::saveEnsemble(path, model);
    EXPECT_NE(::access(path.c_str(), F_OK), -1);
    EXPECT_EQ(::access((path + ".tmp").c_str(), F_OK), -1);

    const auto restored = ml::loadEnsemble(path);
    EXPECT_EQ(restored.members(), model.members());
    Rng rng(9);
    for (int i = 0; i < 20; ++i) {
        const std::vector<double> x{rng.uniform(), rng.uniform()};
        EXPECT_EQ(restored.predict(x), model.predict(x));
    }

    // Overwriting an existing model is just as safe.
    ml::saveEnsemble(path, model);
    EXPECT_NO_THROW(ml::loadEnsemble(path));
}

TEST_F(FaultsIo, TornWriteIsDetectedAsTruncated)
{
    const auto model = smallTrainedEnsemble();
    const std::string path = tmpPath("torn_model.txt");
    util::FaultInjector::global().configure("save:1:1");
    EXPECT_THROW(ml::saveEnsemble(path, model), std::runtime_error);
    util::FaultInjector::global().reset();

    // The injected fault left a half-written file at the final path.
    ASSERT_NE(::access(path.c_str(), F_OK), -1);
    try {
        ml::loadEnsemble(path);
        FAIL() << "torn model file must not load";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }

    // A clean save over the wreckage heals it.
    ml::saveEnsemble(path, model);
    EXPECT_NO_THROW(ml::loadEnsemble(path));
}

TEST_F(FaultsIo, DistinctErrorsForTruncatedCorruptAndVersion)
{
    const auto model = smallTrainedEnsemble();
    const std::string path = tmpPath("adversarial_model.txt");
    ml::saveEnsemble(path, model);
    const std::string good = readFile(path);

    const auto load_error = [&](const std::string &bytes) {
        writeFile(path, bytes);
        try {
            ml::loadEnsemble(path);
            return std::string("(loaded)");
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
    };

    // Empty file.
    EXPECT_NE(load_error("").find("empty"), std::string::npos);
    // Truncated mid-weights: the checksum trailer is gone.
    EXPECT_NE(load_error(good.substr(0, good.size() / 2))
                  .find("truncated"),
              std::string::npos);
    // A single flipped byte: checksum mismatch.
    {
        std::string bad = good;
        bad[bad.size() / 2] ^= 0x04;
        EXPECT_NE(load_error(bad).find("corrupt"), std::string::npos);
    }
    // Version mismatch reads as such (stream-level: the trailer-less
    // format the stream overloads keep).
    {
        std::string bad = good.substr(0, good.find('\n'));
        bad.replace(bad.find(" 1"), 2, " 9");
        std::istringstream is(bad + "\n" +
                              good.substr(good.find('\n') + 1));
        try {
            ml::loadEnsemble(is);
            FAIL() << "wrong version must not load";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(FaultsIo, AdversarialHeadersFailCleanly)
{
    const auto model = smallTrainedEnsemble();
    std::stringstream buffer;
    ml::saveEnsemble(buffer, model);
    const std::string good = buffer.str();

    const auto expect_reject = [](const std::string &bytes) {
        std::istringstream is(bytes);
        EXPECT_THROW(ml::loadEnsemble(is), std::runtime_error) << bytes;
    };

    // Huge claimed member count: rejected before any allocation.
    expect_reject("dse-ensemble 1\nmembers 4000000000\n");
    expect_reject("dse-ensemble 1\nmembers 18446744073709551615\n");
    // Implausible topology in net-meta.
    {
        std::string bad = good;
        const size_t at = bad.find("net-meta ");
        bad.replace(at, bad.find('\n', at) - at,
                    "net-meta 1000000000 1 16 1 0.4 0.5 0.01 2500");
        expect_reject(bad);
    }
    // Huge claimed weight count: rejected by the count check, not by
    // attempting an 18-exabyte read.
    {
        std::string bad = good;
        const size_t at = bad.find("\nnet 0 ");
        const size_t end = bad.find('\n', at + 1);
        bad.replace(at, end - at, "\nnet 0 18446744073709551615");
        expect_reject(bad);
    }
    // Truncated mid-weights at the stream level: clear error.
    expect_reject(good.substr(0, good.size() * 3 / 4));
}

/** FNV-1a over @p n bytes — must match the hash io.cc checksums
 *  model files with, so tests can forge a *valid* trailer around a
 *  tampered body. */
uint64_t
fnv1aHash(const char *data, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= static_cast<uint8_t>(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

TEST_F(FaultsIo, NegativePathsRaiseTheirOwnDocumentedErrors)
{
    const auto model = smallTrainedEnsemble();
    const std::string path = tmpPath("negative_model.txt");
    ml::saveEnsemble(path, model);
    const std::string good = readFile(path);

    const auto load_error = [&](const std::string &bytes) {
        writeFile(path, bytes);
        try {
            ml::loadEnsemble(path);
            return std::string("(loaded)");
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
    };

    // 1. Zero-byte file: its own error, not a parse failure.
    EXPECT_NE(load_error("").find("ensemble file is empty"),
              std::string::npos);

    // 2. A flipped digit inside the checksum trailer itself: the body
    //    is intact, but the stored hash no longer matches — reported
    //    as corruption, distinct from truncation.
    {
        const size_t tag_at = good.rfind("checksum ");
        ASSERT_NE(tag_at, std::string::npos);
        std::string bad = good;
        char &digit = bad[tag_at + 9];
        digit = digit == '0' ? '1' : '0';
        EXPECT_NE(load_error(bad).find("corrupt (checksum mismatch)"),
                  std::string::npos);
    }

    // 3. Oversized member count with a *recomputed, valid* trailer:
    //    the checksum passes, so the member-count bound itself must
    //    reject the file.
    {
        const size_t tag_at = good.rfind("checksum ");
        std::string body = good.substr(0, tag_at);
        const size_t at = body.find("members ");
        ASSERT_NE(at, std::string::npos);
        body.replace(at, body.find('\n', at) - at, "members 5000");
        char trailer[32];
        std::snprintf(trailer, sizeof(trailer), "checksum %016llx\n",
                      static_cast<unsigned long long>(
                          fnv1aHash(body.data(), body.size())));
        EXPECT_NE(load_error(body + trailer).find("bad member count"),
                  std::string::npos);
    }

    // A clean save still loads after all that tampering.
    ml::saveEnsemble(path, model);
    EXPECT_NO_THROW(ml::loadEnsemble(path));
}

// ---------------------------------------------------------------------
// Thread-pool exception containment.
// ---------------------------------------------------------------------

TEST_F(FaultsPool, ParallelForRethrowsFirstExceptionAndStaysUsable)
{
    util::ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 1000,
                         [](size_t i) {
                             if (i == 537)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);

    // The pool survives: a follow-up loop runs every iteration.
    std::atomic<size_t> count{0};
    pool.parallelFor(0, 1000, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 1000u);

    // Inline fallback path (single-threaded pool) propagates too.
    util::ThreadPool serial(1);
    EXPECT_THROW(
        serial.parallelFor(0, 10,
                           [](size_t i) {
                               if (i == 3)
                                   throw std::runtime_error("boom");
                           }),
        std::runtime_error);
}

} // namespace
} // namespace dse
