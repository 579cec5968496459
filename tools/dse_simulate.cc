/**
 * @file
 * Direct simulator front end: run one detailed simulation of a
 * bundled benchmark on a design point of either study (by flat index
 * or by `Param=value` overrides of the space's middle configuration)
 * and print every statistic — for inspecting the substrate the
 * predictive models learn.
 *
 * Examples:
 *   dse_simulate --study=memory --app=mcf --index=12345
 *   dse_simulate --study=processor --app=gzip Width=8 FreqGHz=2
 *   dse_simulate --study=memory --app=twolf --simpoint --index=7
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "cli.hh"
#include "study/harness.hh"
#include "util/metrics.hh"

using namespace dse;

namespace {

const char *const kUsage =
    "usage: dse_simulate [--study=memory|processor] [--app=<name>]\n"
    "               [--index=<n> | Param=value ...] [--simpoint]\n"
    "               [--metrics[=path]]\n"
    "Runs one detailed simulation and prints its statistics.\n"
    "--metrics collects dse::obs metrics and prints them as a\n"
    "table (or writes JSON to <path>) before exiting.\n"
    "Param=value entries override the space's middle point; use\n"
    "dse_explore --describe-space for names and levels.\n"
    "exit codes: 0 ok, 1 bad usage, 2 invalid input, 3 runtime\n"
    "or I/O failure, 4 internal";

int
levelOfValue(const ml::DesignSpace &space, size_t p,
             const std::string &name, const std::string &value)
{
    const auto &desc = space.param(p);
    if (desc.kind == ml::ParamKind::Nominal) {
        for (int l = 0; l < desc.numLevels(); ++l) {
            if (desc.labels[static_cast<size_t>(l)] == value)
                return l;
        }
    } else {
        const double v = cli::parseReal(name.c_str(), value);
        for (int l = 0; l < desc.numLevels(); ++l) {
            if (desc.values[static_cast<size_t>(l)] == v)
                return l;
        }
    }
    throw cli::UsageError("'" + value + "' is not a level of " + name);
}

int
run(int argc, char **argv)
{
    study::StudyKind kind = study::StudyKind::MemorySystem;
    std::string app = "gzip";
    bool use_simpoint = false;
    bool have_index = false;
    cli::Metrics metrics;
    uint64_t index = 0;
    std::vector<std::pair<std::string, std::string>> overrides;

    for (int i = 1; i < argc; ++i) {
        cli::Arg a(argv[i]);
        if (a.has("--study")) {
            kind = a.study();
        } else if (a.has("--app")) {
            app = a.value();
        } else if (a.has("--index")) {
            index = a.count();
            have_index = true;
        } else if (a.is("--simpoint")) {
            use_simpoint = true;
        } else if (a.metrics(metrics)) {
            continue;
        } else if (const char *eq = std::strchr(argv[i], '=')) {
            overrides.emplace_back(std::string(argv[i], eq - argv[i]),
                                   eq + 1);
        } else {
            a.unknown();
        }
    }

    if (metrics.on)
        obs::setMetricsEnabled(true);

    study::StudyContext ctx(kind, app);
    const auto &space = ctx.space();

    if (!have_index) {
        std::vector<int> lv(space.numParams());
        for (size_t p = 0; p < space.numParams(); ++p)
            lv[p] = space.param(p).numLevels() / 2;
        for (const auto &[name, value] : overrides) {
            size_t p;
            try {
                p = space.paramIndex(name);
            } catch (const std::exception &) {
                throw cli::UsageError("unknown parameter '" + name + "'");
            }
            lv[p] = levelOfValue(space, p, name, value);
        }
        index = space.index(lv);
    } else if (index >= space.size()) {
        throw std::invalid_argument(
            "design-point index " + std::to_string(index) +
            " out of range (space has " + std::to_string(space.size()) +
            " points)");
    }

    const auto lv = space.levels(index);
    std::printf("%s / %s, design point %llu:\n",
                study::studyName(kind), app.c_str(),
                static_cast<unsigned long long>(index));
    for (size_t p = 0; p < space.numParams(); ++p)
        std::printf("  %-16s %s\n", space.param(p).name.c_str(),
                    space.levelText(p, lv[p]).c_str());

    const sim::SimResult r = ctx.simulateFullBatch({index})[0];
    std::printf("\nconfig: %s\n", ctx.config(index).describe().c_str());
    std::printf("cycles            %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("instructions      %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("IPC               %.4f\n", r.ipc);
    std::printf("L1D miss rate     %.4f (%llu/%llu)\n", r.l1dMissRate,
                static_cast<unsigned long long>(r.l1dMisses),
                static_cast<unsigned long long>(r.l1dAccesses));
    std::printf("L2 miss rate      %.4f (%llu/%llu)\n", r.l2MissRate,
                static_cast<unsigned long long>(r.l2Misses),
                static_cast<unsigned long long>(r.l2Accesses));
    std::printf("L1I miss rate     %.4f\n", r.l1iMissRate);
    std::printf("BP mispredict     %.4f (%llu/%llu)\n",
                r.branchMispredictRate,
                static_cast<unsigned long long>(r.branchMispredicts),
                static_cast<unsigned long long>(r.branches));

    if (use_simpoint) {
        const double est =
            ctx.simulateBatch({index}, study::Fidelity::SimPoint)[0];
        std::printf("\nSimPoint estimate %.4f (%.2f%% off, %zu of %zu "
                    "instructions detailed)\n",
                    est, 100.0 * std::abs(est - r.ipc) / r.ipc,
                    ctx.simPointInstructionsPerEstimate(),
                    ctx.trace().size());
    }

    if (metrics.on) {
        std::printf("\n");
        obs::reportGlobalMetrics(metrics.path);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::main("dse_simulate", kUsage, run, argc, argv);
}
