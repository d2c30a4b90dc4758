/**
 * @file
 * Shared helpers for the artifact benches: the shared command line,
 * the sweep runner it configures and the BENCH_*.json artifact.
 */

#ifndef UASIM_BENCH_BENCH_UTIL_HH
#define UASIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "core/cli.hh"
#include "core/result.hh"
#include "core/sweep.hh"
#include "timing/config.hh"
#include "video/sequence.hh"

namespace uasim::bench {

/**
 * A bench's parsed command line. Every bench takes the shared flags -
 * "--quick", "--threads N", "--trace-cache DIR", "--timing-model
 * pipeline|ooo" and "--json DIR" - so the results gate can drive them
 * all the same way, plus its own workload flags.
 */
struct BenchOptions {
    explicit BenchOptions(core::CliArgs parsed)
        : args(std::move(parsed)), quick(args.has("--quick")),
          timingModel(args.text("--timing-model", "pipeline")),
          jsonDir(args.text("--json"))
    {
    }

    core::CliArgs args;
    /// The smoke-test tiny-input path was requested.
    bool quick;
    /// The backend (CoreConfig::model) every timing cell simulates on.
    std::string timingModel;
    /// Artifact directory; empty when "--json" is absent.
    std::string jsonDir;

    /// Workload size: an explicit "--execs N" / "--frames N" (min 1)
    /// wins, else --quick selects @p quickDef, else @p def.
    int size(const char *name, int def, int quickDef) const
    {
        return args.number(name, quick ? quickDef : def);
    }
};

/**
 * Parse a bench command line: the shared flags plus @p own and
 * "--help", which prints the usage line to stdout and exits 0, as
 * uasim-sweep and uasim-report do. A rejected token or an unknown
 * "--timing-model" exits 2; the "--json" DIR is created before any
 * simulation (exit 1 if it cannot be).
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv, std::vector<core::CliFlag> own = {})
{
    std::string models;
    for (std::string_view m : timing::timingModelNames())
        models.append(models.empty() ? "" : "|").append(m);
    own.insert(own.begin(),
               {{"--quick"},
                {"--threads", core::CliFlag::Int, "N", 0},
                {"--trace-cache", core::CliFlag::String, "DIR"},
                {"--timing-model", core::CliFlag::String, models},
                {"--json", core::CliFlag::String, "DIR"}});
    own.push_back({"--help"});
    BenchOptions opt(core::parseCommandLine(argc, argv, std::move(own)));
    if (opt.args.has("--help")) {
        std::printf("%s\n", opt.args.usage().c_str());
        std::exit(0);
    }
    if (!timing::isTimingModel(opt.timingModel))
        opt.args.fail("--timing-model",
                      "unknown model \"" + opt.timingModel + "\"");
    std::error_code ec;
    if (!opt.jsonDir.empty() &&
        !std::filesystem::create_directories(opt.jsonDir, ec) && ec) {
        std::fprintf(stderr, "--json: cannot create %s: %s\n",
                     opt.jsonDir.c_str(), ec.message().c_str());
        std::exit(1);
    }
    return opt;
}

/**
 * SweepRunner configured from the shared bench flags: "--threads N"
 * workers (0 = hardware concurrency; results are byte-identical at
 * any value), every timing cell on the "--timing-model" backend, and,
 * with "--trace-cache DIR", a persistent content-addressed trace store
 * that lets a warm run replay every kernel trace from disk. Exits 1
 * if DIR cannot be created.
 */
inline core::SweepRunner
makeSweepRunner(const BenchOptions &opt)
{
    core::SweepRunner runner(opt.args.number("--threads", 0));
    runner.setTimingModel(opt.timingModel);
    const std::string dir = opt.args.text("--trace-cache");
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
 * Start a BenchResult for this bench: names it and records the shared
 * flags every bench honors ("quick" first, so artifacts lead with the
 * workload scale; then "timing_model", because a different backend is
 * a different experiment and must gate baseline comparison).
 */
inline core::BenchResult
makeResult(const char *bench, const BenchOptions &opt)
{
    core::BenchResult r;
    r.bench = bench;
    r.addParam("quick", json::Value(opt.quick));
    r.addParam("timing_model", json::Value(opt.timingModel));
    return r;
}

/**
 * Write the artifact into the "--json DIR" directory, when given, as
 * BENCH_<bench>.json, or BENCH_<bench>.<model>.json under a
 * non-default "--timing-model" (a separate experiment with its own
 * baseline). The write is atomic (tmp+rename) and a failure exits 1:
 * a silently missing artifact must not look like a passing run.
 */
inline void
writeResultArtifact(const BenchOptions &opt,
                    const core::BenchResult &result)
{
    if (opt.jsonDir.empty())
        return;
    std::string file = "BENCH_" + result.bench;
    if (opt.timingModel != "pipeline")
        file += "." + opt.timingModel;
    file += ".json";
    const std::string path =
        (std::filesystem::path(opt.jsonDir) / file).string();
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
finishArtifact(const BenchOptions &opt, core::BenchResult &artifact,
               const std::vector<core::SweepCellResult> &results,
               const core::SweepRunner &runner)
{
    artifact.addCells(results);
    artifact.setStats(runner.stats());
    writeResultArtifact(opt, artifact);
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
