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

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "study/harness.hh"
#include "util/metrics.hh"
#include "util/table.hh"

using namespace dse;

namespace {

void
usage()
{
    std::puts(
        "usage: dse_simulate [--study=memory|processor] [--app=<name>]\n"
        "               [--index=<n> | Param=value ...] [--simpoint]\n"
        "               [--metrics[=path]]\n"
        "Runs one detailed simulation and prints its statistics.\n"
        "--metrics collects dse::obs metrics and prints them as a\n"
        "table (or writes JSON to <path>) before exiting.\n"
        "Param=value entries override the space's middle point; use\n"
        "dse_explore --describe-space for names and levels.\n"
        "exit codes: 0 ok, 1 bad usage, 2 invalid input, 3 runtime\n"
        "or I/O failure, 4 internal");
}

int
levelOfValue(const ml::DesignSpace &space, size_t p,
             const std::string &value)
{
    const auto &desc = space.param(p);
    if (desc.kind == ml::ParamKind::Nominal) {
        for (int l = 0; l < desc.numLevels(); ++l) {
            if (desc.labels[static_cast<size_t>(l)] == value)
                return l;
        }
    } else {
        const double v = std::atof(value.c_str());
        for (int l = 0; l < desc.numLevels(); ++l) {
            if (desc.values[static_cast<size_t>(l)] == v)
                return l;
        }
    }
    return -1;
}

int
run(int argc, char **argv)
{
    study::StudyKind kind = study::StudyKind::MemorySystem;
    std::string app = "gzip";
    bool use_simpoint = false;
    bool have_index = false;
    bool metrics = false;
    std::string metrics_path;
    uint64_t index = 0;
    std::vector<std::pair<std::string, std::string>> overrides;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--study=", 0) == 0) {
            const std::string v = arg.substr(8);
            kind = (v == "processor") ? study::StudyKind::Processor
                                      : study::StudyKind::MemorySystem;
        } else if (arg.rfind("--app=", 0) == 0) {
            app = arg.substr(6);
        } else if (arg.rfind("--index=", 0) == 0) {
            index = static_cast<uint64_t>(
                std::atoll(arg.c_str() + 8));
            have_index = true;
        } else if (arg == "--simpoint") {
            use_simpoint = true;
        } else if (arg == "--metrics") {
            metrics = true;
        } else if (arg.rfind("--metrics=", 0) == 0) {
            metrics = true;
            metrics_path = arg.substr(10);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg.find('=') != std::string::npos) {
            const auto eq = arg.find('=');
            overrides.emplace_back(arg.substr(0, eq),
                                   arg.substr(eq + 1));
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         arg.c_str());
            usage();
            return 1;
        }
    }

    if (metrics)
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
                std::fprintf(stderr, "unknown parameter '%s'\n",
                             name.c_str());
                return 1;
            }
            const int level = levelOfValue(space, p, value);
            if (level < 0) {
                std::fprintf(stderr,
                             "'%s' is not a level of %s\n",
                             value.c_str(), name.c_str());
                return 1;
            }
            lv[p] = level;
        }
        index = space.index(lv);
    }

    const auto lv = space.levels(index);
    std::printf("%s / %s, design point %llu:\n",
                study::studyName(kind), app.c_str(),
                static_cast<unsigned long long>(index));
    for (size_t p = 0; p < space.numParams(); ++p) {
        if (space.param(p).kind == ml::ParamKind::Nominal) {
            std::printf("  %-16s %s\n", space.param(p).name.c_str(),
                        space.label(p, lv[p]).c_str());
        } else {
            std::printf("  %-16s %g\n", space.param(p).name.c_str(),
                        space.value(p, lv[p]));
        }
    }

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

    if (metrics) {
        std::printf("\n");
        obs::reportGlobalMetrics(metrics_path);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // One actionable line and a distinct exit code per failure class;
    // an unknown benchmark or an unreadable journal must not abort.
    try {
        return run(argc, argv);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "dse_simulate: invalid input: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dse_simulate: error: %s\n", e.what());
        return 3;
    } catch (...) {
        std::fprintf(stderr, "dse_simulate: unknown fatal error\n");
        return 4;
    }
}
