/**
 * @file
 * Shared helpers for the artifact benches: command-line handling and
 * the paper-reference annotations printed next to measured values.
 */

#ifndef UASIM_BENCH_BENCH_UTIL_HH
#define UASIM_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "core/result.hh"
#include "core/sweep.hh"
#include "timing/model.hh"
#include "video/sequence.hh"

namespace uasim::bench {

/// Parse "--execs N" / "--frames N" style flags with a default.
/// Like stringFlag below, a missing or non-numeric operand is fatal:
/// atoi's silent 0 would turn a typo into a wrong-but-exit-0 run. So
/// is an operand below @p min, before any work is done.
inline int
intFlag(int argc, char **argv, const char *name, int def,
        int min = INT_MIN)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing operand\n", name);
                std::exit(2);
            }
            errno = 0;
            char *end = nullptr;
            const long v = std::strtol(argv[i + 1], &end, 10);
            if (end == argv[i + 1] || *end != '\0' ||
                errno == ERANGE || v < INT_MIN || v > INT_MAX) {
                std::fprintf(stderr, "%s: invalid number \"%s\"\n",
                             name, argv[i + 1]);
                std::exit(2);
            }
            if (v < min) {
                std::fprintf(stderr, "%s: %ld out of range (minimum %d)\n",
                             name, v, min);
                std::exit(2);
            }
            return int(v);
        }
    }
    return def;
}

/// Parse a "--name STR" flag with a default. A flag given without its
/// operand is fatal: silently falling back to the default would make
/// e.g. "--json" (PATH forgotten) look like a passing artifact run.
inline const char *
stringFlag(int argc, char **argv, const char *name, const char *def)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0) {
            // A following "--flag" is a forgotten operand, not a
            // value — "--json --quick" must not write a file named
            // "--quick" and exit 0.
            if (i + 1 >= argc ||
                std::strncmp(argv[i + 1], "--", 2) == 0) {
                std::fprintf(stderr, "%s: missing operand\n", name);
                std::exit(2);
            }
            return argv[i + 1];
        }
    }
    return def;
}

inline bool
boolFlag(int argc, char **argv, const char *name)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return true;
    }
    return false;
}

/// True when the smoke-test tiny-input path was requested.
inline bool
quickFlag(int argc, char **argv)
{
    return boolFlag(argc, argv, "--quick");
}

/**
 * Sweep worker count ("--threads N", N >= 0). The default 0 lets
 * SweepRunner pick the hardware concurrency; results are
 * byte-identical at any value (the runner's cell-ordered results are
 * deterministic).
 */
inline int
threadsFlag(int argc, char **argv)
{
    return intFlag(argc, argv, "--threads", 0, 0);
}

/**
 * Persistent trace-cache directory ("--trace-cache DIR"); empty when
 * the flag is absent (no store).
 */
inline std::string
traceCacheFlag(int argc, char **argv)
{
    return stringFlag(argc, argv, "--trace-cache", "");
}

/**
 * Timing-backend selector ("--timing-model pipeline|ooo", default
 * pipeline). Every timing cell of the run simulates on the named
 * TimingModel backend (SweepRunner::setTimingModel overrides each
 * config's model field); results from different backends are
 * different experiments, so artifacts carry the model as a gating
 * "timing_model" param and non-default models get model-suffixed
 * canonical artifact names. An unknown name is fatal, like every
 * other malformed bench flag.
 */
inline std::string
timingModelFlag(int argc, char **argv)
{
    const std::string name =
        stringFlag(argc, argv, "--timing-model", "pipeline");
    if (!timing::isTimingModel(name)) {
        std::string known;
        for (const auto &m : timing::timingModelNames()) {
            if (!known.empty())
                known += ", ";
            known += '"';
            known += m;
            known += '"';
        }
        std::fprintf(stderr,
                     "--timing-model: unknown model \"%s\" "
                     "(expected %s)\n",
                     name.c_str(), known.c_str());
        std::exit(2);
    }
    return name;
}

/**
 * SweepRunner configured from the shared bench flags: "--threads N"
 * workers, "--timing-model pipeline|ooo" backend selection, plus, when
 * "--trace-cache DIR" is given, a persistent content-addressed trace
 * store (trace/trace_store.hh). With the store, a second (warm) run
 * of the same grid replays every kernel trace from disk instead of
 * re-emulating it, with byte-identical output. Exits with a
 * diagnostic if DIR cannot be created.
 */
inline core::SweepRunner
makeSweepRunner(int argc, char **argv)
{
    core::SweepRunner runner(threadsFlag(argc, argv));
    runner.setTimingModel(timingModelFlag(argc, argv));
    const std::string dir = traceCacheFlag(argc, argv);
    if (dir.empty() && boolFlag(argc, argv, "--trace-cache")) {
        // Same rule as --json: an empty DIR (unset shell variable)
        // must not silently run uncached with exit 0.
        std::fprintf(stderr, "--trace-cache: empty DIR operand\n");
        std::exit(2);
    }
    if (!dir.empty()) {
        try {
            runner.attachStore(dir);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "--trace-cache: %s\n", e.what());
            std::exit(1);
        }
    }
    return runner;
}

/**
 * Machine-readable artifact path ("--json PATH"); empty when absent.
 */
inline std::string
jsonFlag(int argc, char **argv)
{
    return stringFlag(argc, argv, "--json", "");
}

/**
 * Start a BenchResult for this bench: names it and records the shared
 * flags every bench honors ("quick" first, so artifacts lead with the
 * workload scale; then "timing_model", because a different backend is
 * a different experiment and must gate baseline comparison).
 */
inline core::BenchResult
makeResult(const char *bench, int argc, char **argv)
{
    core::BenchResult r;
    r.bench = bench;
    r.addParam("quick", json::Value(quickFlag(argc, argv)));
    r.addParam("timing_model",
               json::Value(timingModelFlag(argc, argv)));
    return r;
}

/**
 * Emit the BENCH_<name>.json artifact when "--json PATH" was given.
 * PATH naming an existing directory (or ending in '/') places the
 * canonically named artifact inside it - BENCH_<bench>.json on the
 * default backend, BENCH_<bench>.<model>.json under a non-default
 * "--timing-model" (per-model runs are separate experiments with
 * separate baselines, and the suffix keeps them paired by filename in
 * baseline diffs); otherwise the
 * artifact is written to PATH exactly. The write is atomic
 * (tmp+rename) and a failure is fatal: CI consumes these artifacts,
 * so a silently missing one must not look like a passing run.
 */
inline void
writeResultArtifact(int argc, char **argv,
                    const core::BenchResult &result)
{
    std::string path = jsonFlag(argc, argv);
    if (path.empty()) {
        // "--json ''" (e.g. an unset shell variable) is present but
        // useless; treat it like a missing operand, not "no flag".
        if (boolFlag(argc, argv, "--json")) {
            std::fprintf(stderr, "--json: empty PATH operand\n");
            std::exit(2);
        }
        return;
    }
    std::error_code ec;
    if (path.back() == '/' ||
        std::filesystem::is_directory(path, ec)) {
        const std::string model = timingModelFlag(argc, argv);
        std::string file = "BENCH_" + result.bench;
        if (model != "pipeline") {
            file += '.';
            file += model;
        }
        file += ".json";
        path = (std::filesystem::path(path) / file).string();
    }
    try {
        core::saveResultFile(result, path);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "--json: %s\n", e.what());
        std::exit(1);
    }
    std::fprintf(stderr, "[json] wrote %s\n", path.c_str());
}

/**
 * Shared epilogue for the sweep benches: attach every cell result and
 * the runner statistics to the artifact, then emit it when "--json"
 * was given.
 */
inline void
finishArtifact(int argc, char **argv, core::BenchResult &artifact,
               const std::vector<core::SweepCellResult> &results,
               const core::SweepRunner &runner)
{
    artifact.addCells(results);
    artifact.setStats(runner.stats());
    writeResultArtifact(argc, argv, artifact);
}

/**
 * Workload-size flag with a --quick override: an explicit "--execs N"
 * (N >= 1; an empty workload has no per-execution averages) wins,
 * otherwise --quick selects @p quickDef (a tiny smoke-test input),
 * otherwise @p def (the paper-scale default).
 */
inline int
sizeFlag(int argc, char **argv, const char *name, int def, int quickDef)
{
    return intFlag(argc, argv, name,
                   quickFlag(argc, argv) ? quickDef : def, 1);
}

/// Smoke-path geometry shared by the scenario programs: QCIF under
/// --quick, CIF otherwise.
inline video::Resolution
quickResolution(bool quick)
{
    return quick ? video::Resolution{176, 144, "qcif"}
                 : video::Resolution{352, 288, "cif"};
}

} // namespace uasim::bench

#endif // UASIM_BENCH_BENCH_UTIL_HH
