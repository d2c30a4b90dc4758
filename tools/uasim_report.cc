/**
 * @file
 * uasim-report: the BENCH_*.json regression differ.
 *
 * Compares a baseline result set (the committed baselines/ directory)
 * against a freshly generated one. Simulated fields - params, derived
 * metrics, every sweep cell's cycles / instruction counts / mix, and
 * the deterministic SweepStats subset - are compared bit-exactly;
 * wall-clock / store-traffic fields are printed but never gate.
 *
 * Exit codes (the CI contract, core::exitCode):
 *   0  every artifact pair matches
 *   1  at least one simulated-metric regression (or a missing /
 *      extra artifact on either side)
 *   2  at least one artifact could not be parsed against the schema
 *
 * With --update-baselines the current artifacts are rewritten into
 * the baseline directory in canonical baseline form (informational
 * block stripped), so refreshed baselines diff cleanly in review.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/result.hh"

namespace fs = std::filesystem;
using uasim::core::BenchResult;
using uasim::core::DiffStatus;

namespace {

int
usage(const char *argv0, bool requested)
{
    // An explicit --help is a successful run on stdout; reaching here
    // on bad arguments is the schema-error exit on stderr.
    std::fprintf(
        requested ? stdout : stderr,
        "usage: %s [--update-baselines] BASELINE CURRENT\n"
        "\n"
        "  BASELINE / CURRENT are BENCH_*.json files, or directories\n"
        "  of them (compared pairwise by file name, union of both\n"
        "  sides; an artifact missing on either side is a\n"
        "  regression).\n"
        "\n"
        "  --update-baselines  instead of diffing, rewrite CURRENT's\n"
        "                      artifacts into BASELINE in canonical\n"
        "                      baseline form (wall-time block\n"
        "                      stripped)\n"
        "  --prune             with --update-baselines: also remove\n"
        "                      baselines absent from CURRENT (full-set\n"
        "                      refresh; without it a partial CURRENT\n"
        "                      only touches its own artifacts)\n"
        "  --version           print the tool version and the\n"
        "                      artifact schema it gates, then exit 0\n"
        "\n"
        "exit codes: 0 match, 1 regression, 2 schema error\n",
        argv0);
    return requested ? 0
                     : uasim::core::exitCode(DiffStatus::SchemaError);
}

/// BENCH_*.json names under @p dir, sorted (or the single file name).
std::vector<std::string>
artifactNames(const fs::path &path)
{
    std::vector<std::string> names;
    if (!fs::is_directory(path)) {
        names.push_back(path.filename().string());
        return names;
    }
    for (const auto &entry : fs::directory_iterator(path)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.starts_with("BENCH_") && name.ends_with(".json"))
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

/// Resolve @p name inside @p root (which may itself be the file).
fs::path
resolve(const fs::path &root, const std::string &name)
{
    return fs::is_directory(root) ? root / name : root;
}

/**
 * " [model=NAME]" when the artifact at @p path parses and carries a
 * "timing_model" param; empty otherwise. Cosmetic context for the
 * mismatch lines (per-model artifacts of one bench differ only in
 * this param and a filename suffix) - it never affects the diff
 * status, so an unreadable artifact stays a plain MISSING/SCHEMA
 * verdict from the usual paths.
 */
std::string
modelTag(const fs::path &path)
{
    try {
        const BenchResult r =
            uasim::core::loadResultFile(path.string());
        for (const auto &[key, value] : r.params) {
            if (key == "timing_model" &&
                value.type() == uasim::json::Value::Type::String)
                return " [model=" + value.asString() + "]";
        }
    } catch (const std::exception &) {
    }
    return "";
}

std::optional<BenchResult>
load(const fs::path &path, DiffStatus &status)
{
    try {
        return uasim::core::loadResultFile(path.string());
    } catch (const uasim::core::SchemaError &e) {
        std::printf("SCHEMA ERROR  %s\n", e.what());
        status = uasim::core::worse(status, DiffStatus::SchemaError);
        return std::nullopt;
    }
}

int
updateBaselines(const fs::path &baseDir, const fs::path &curPath,
                bool prune)
{
    if (prune && !fs::is_directory(curPath)) {
        // A lone file would "prune" every other baseline.
        std::fprintf(stderr,
                     "--prune requires CURRENT to be a full artifact "
                     "directory, not a single file\n");
        return uasim::core::exitCode(DiffStatus::SchemaError);
    }
    std::error_code ec;
    fs::create_directories(baseDir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n",
                     baseDir.string().c_str(), ec.message().c_str());
        return uasim::core::exitCode(DiffStatus::SchemaError);
    }
    const std::vector<std::string> names = artifactNames(curPath);
    if (names.empty()) {
        // Same contract as diff mode: an empty current set is a
        // broken invocation, not a successful no-op refresh.
        std::fprintf(stderr,
                     "%s: no BENCH_*.json artifacts to update from\n",
                     curPath.string().c_str());
        return uasim::core::exitCode(DiffStatus::SchemaError);
    }
    DiffStatus status = DiffStatus::Match;
    for (const std::string &name : names) {
        auto cur = load(resolve(curPath, name), status);
        if (!cur)
            continue;
        const fs::path out = baseDir / name;
        try {
            uasim::core::saveResultFile(
                *cur, out.string(), /*includeInformational=*/false);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "cannot write %s: %s\n",
                         out.string().c_str(), e.what());
            return uasim::core::exitCode(DiffStatus::SchemaError);
        }
        std::printf("UPDATED       %s\n", out.string().c_str());
    }
    // A full-set refresh (--prune) also retires baselines whose bench
    // no longer emits an artifact - otherwise the gate's union pass
    // reports MISSING CUR forever after a bench rename/removal.
    // Pruning is opt-in so refreshing a subset of artifacts from a
    // scratch directory cannot silently delete the others' baselines.
    for (const std::string &stale : artifactNames(baseDir)) {
        if (std::find(names.begin(), names.end(), stale) !=
            names.end())
            continue;
        if (!prune) {
            std::printf("STALE?        %s (absent from %s; pass "
                        "--prune on a full-set refresh to remove)\n",
                        stale.c_str(), curPath.string().c_str());
            continue;
        }
        std::error_code ec;
        fs::remove(baseDir / stale, ec);
        if (ec) {
            std::fprintf(stderr, "cannot remove %s: %s\n",
                         (baseDir / stale).string().c_str(),
                         ec.message().c_str());
            return uasim::core::exitCode(DiffStatus::SchemaError);
        }
        std::printf("REMOVED       %s\n",
                    (baseDir / stale).string().c_str());
    }
    return uasim::core::exitCode(status);
}

} // namespace

int
main(int argc, char **argv)
{
    bool update = false;
    bool prune = false;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--update-baselines") == 0)
            update = true;
        else if (std::strcmp(argv[i], "--prune") == 0)
            prune = true;
        else if (std::strcmp(argv[i], "--help") == 0)
            return usage(argv[0], /*requested=*/true);
        else if (std::strcmp(argv[i], "--version") == 0) {
            // Self-report for CI logs and artifact consumers: which
            // schema this differ understands and gates.
            std::printf("uasim-report %s (schema %s v%d)\n",
                        UASIM_REPORT_VERSION, BenchResult::schemaName,
                        BenchResult::schemaVersion);
            return 0;
        }
        else
            positional.push_back(argv[i]);
    }
    if (positional.size() != 2)
        return usage(argv[0], /*requested=*/false);

    const fs::path basePath = positional[0];
    const fs::path curPath = positional[1];

    if (!fs::exists(curPath)) {
        std::fprintf(stderr, "%s: does not exist\n",
                     curPath.string().c_str());
        return uasim::core::exitCode(DiffStatus::SchemaError);
    }
    if (prune && !update) {
        std::fprintf(stderr,
                     "--prune requires --update-baselines\n");
        return uasim::core::exitCode(DiffStatus::SchemaError);
    }
    if (update)
        return updateBaselines(basePath, curPath, prune);
    if (!fs::exists(basePath)) {
        std::fprintf(stderr,
                     "%s: does not exist (generate it with "
                     "--update-baselines)\n",
                     basePath.string().c_str());
        return uasim::core::exitCode(DiffStatus::SchemaError);
    }

    // dir vs dir: the union of artifact names on both sides, one
    // verdict each. A single file on either side restricts the
    // comparison to that one artifact (its namesake in the directory
    // side), whatever its name.
    const bool baseIsDir = fs::is_directory(basePath);
    const bool curIsDir = fs::is_directory(curPath);
    std::vector<std::string> names;
    if (baseIsDir && curIsDir) {
        names = artifactNames(basePath);
        for (const std::string &n : artifactNames(curPath)) {
            if (std::find(names.begin(), names.end(), n) ==
                names.end())
                names.push_back(n);
        }
    } else {
        names.push_back((curIsDir ? basePath : curPath)
                            .filename()
                            .string());
    }
    std::sort(names.begin(), names.end());
    if (names.empty()) {
        std::fprintf(stderr, "no BENCH_*.json artifacts found\n");
        return uasim::core::exitCode(DiffStatus::SchemaError);
    }

    DiffStatus status = DiffStatus::Match;
    int regressions = 0;
    for (const std::string &name : names) {
        const fs::path basFile = resolve(basePath, name);
        const fs::path curFile = resolve(curPath, name);
        if (!fs::exists(basFile)) {
            std::printf("MISSING BASE  %s%s (new bench? refresh with "
                        "--update-baselines)\n",
                        name.c_str(), modelTag(curFile).c_str());
            status = uasim::core::worse(status, DiffStatus::Regression);
            ++regressions;
            continue;
        }
        if (!fs::exists(curFile)) {
            std::printf("MISSING CUR   %s%s (bench no longer emits "
                        "this artifact)\n",
                        name.c_str(), modelTag(basFile).c_str());
            status = uasim::core::worse(status, DiffStatus::Regression);
            ++regressions;
            continue;
        }
        auto base = load(basFile, status);
        auto cur = load(curFile, status);
        if (!base || !cur)
            continue;
        auto report = uasim::core::diffResults(*base, *cur);
        if (report.status == DiffStatus::Match) {
            std::printf("OK            %s\n", name.c_str());
        } else {
            std::printf("REGRESSION    %s%s\n", name.c_str(),
                        modelTag(curFile).c_str());
            ++regressions;
        }
        for (const std::string &line : report.regressions)
            std::printf("    %s\n", line.c_str());
        for (const std::string &line : report.notes)
            std::printf("    note: %s\n", line.c_str());
        status = uasim::core::worse(status, report.status);
    }

    if (status == DiffStatus::Match)
        std::printf("all %zu artifact(s) match\n", names.size());
    else
        std::printf("%d artifact(s) differ\n", regressions);
    return uasim::core::exitCode(status);
}
