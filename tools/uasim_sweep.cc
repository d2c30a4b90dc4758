/**
 * @file
 * uasim-sweep: the declarative campaign driver.
 *
 *   uasim-sweep run CAMPAIGN.conf [--shard I/N] --json DIR ...
 *   uasim-sweep expand CAMPAIGN.conf [--shard I/N]
 *
 * `run` expands the campaign (core/campaign.hh) and executes this
 * invocation's chunks through the SweepRunner/TraceStore stack,
 * publishing each under DIR/<id>.chunks/ as it completes. Chunks
 * already published there are skipped, not re-run: that is the resume
 * property, and the "executed E chunk(s), skipped S published
 * chunk(s)" summary line is what the campaign_merge_parity test greps
 * to prove it. A --shard I/N run with N > 1 stops there; a run without
 * --shard (or with 0/1) also assembles BENCH_<name>.json from the
 * chunk directory. Merging shards is that unsharded run over their
 * shared (or copied-together) chunk directories.
 *
 * `expand` is the dry run: identity, grid shape, and the chunk ->
 * shard table, without simulating anything.
 *
 * Exit codes: 0 success, 1 execution failure, 2 usage error or
 * malformed campaign (including an out-of-range --shard).
 *
 * Like the campaign library itself, this tool is inside the
 * sim-determinism lint scope: chunk addressing and shard assignment
 * must stay wall-clock- and randomness-free.
 */

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "core/campaign.hh"

using uasim::core::Campaign;
using uasim::core::CampaignError;
using uasim::core::CampaignRunOptions;
using uasim::core::CampaignRunOutcome;

namespace {

int
usage(const char *argv0, bool requested)
{
    std::fprintf(
        requested ? stdout : stderr,
        "usage: %s run CAMPAIGN.conf --json DIR [options]\n"
        "       %s expand CAMPAIGN.conf [--shard I/N]\n"
        "\n"
        "run options:\n"
        "  --json DIR          artifact directory (required): resumable\n"
        "                      chunk artifacts under\n"
        "                      DIR/<campaign-id>.chunks/ plus, for a\n"
        "                      run over every chunk, BENCH_<name>.json\n"
        "  --shard I/N         run shard I of N (chunk j belongs to\n"
        "                      shard j%%N) and publish its chunks only;\n"
        "                      omit to run every chunk not yet\n"
        "                      published and assemble the artifact\n"
        "  --threads N         sweep worker threads (default: hardware)\n"
        "  --trace-cache DIR   persistent content-addressed trace store\n"
        "\n"
        "expand prints the campaign identity, grid shape, and chunk ->\n"
        "shard table without simulating.\n"
        "\n"
        "exit codes: 0 success, 1 run failure, 2 usage/malformed "
        "campaign\n",
        argv0, argv0);
    return requested ? 0 : 2;
}

/// Parse a whole decimal operand in [0, INT_MAX].
bool
parseCount(const char *text, int &out)
{
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < 0 ||
        v > INT_MAX)
        return false;
    out = int(v);
    return true;
}

/// Parse a --shard operand "I/N": two digit-only halves, each a
/// parseCount() value (range against the grid is checked later).
bool
parseShard(const std::string &spec, int &shard, int &count)
{
    const std::size_t slash = spec.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= spec.size())
        return false;
    for (std::size_t i = 0; i < spec.size(); ++i)
        if (i != slash && !std::isdigit(static_cast<unsigned char>(spec[i])))
            return false;
    return parseCount(spec.substr(0, slash).c_str(), shard) &&
           parseCount(spec.substr(slash + 1).c_str(), count);
}

/// Operand of flag argv[i]; exits 2 when missing or another flag.
const char *
operand(int argc, char **argv, int &i)
{
    if (i + 1 >= argc || argv[i + 1][0] == '-') {
        std::fprintf(stderr, "%s: missing operand for %s\n", argv[0],
                     argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

struct Options {
    std::string verb;
    std::string campaignFile;
    int shard = 0;
    int shardCount = 1;
    std::string jsonDir;
    int threads = 0;
    std::string traceCache;
};

int
runExpand(const Campaign &c, const Options &opt)
{
    std::printf("campaign  %s\n", c.name().c_str());
    std::printf("id        %s\n", c.id().c_str());
    std::printf("hash      %s\n", c.contentHashHex().c_str());
    std::printf("execs     %d\n", c.execs());
    std::printf("seed      %llu\n",
                static_cast<unsigned long long>(c.seed()));
    std::printf("chunks    %d (traces)\n", c.chunkCount());
    std::printf("configs   %d\n", c.configCount());
    std::printf("cells     %d\n", c.chunkCount() * c.configCount());
    for (const auto &cfg : c.configs())
        std::printf("config    %s\n", cfg.label.c_str());
    for (int j = 0; j < c.chunkCount(); ++j) {
        if (opt.shardCount > 1)
            std::printf("chunk %-3d shard %d/%d  %s  %s\n", j,
                        j % opt.shardCount, opt.shardCount,
                        c.chunkFileName(j).c_str(),
                        c.chunkTraceKey(j).c_str());
        else
            std::printf("chunk %-3d %s  %s\n", j,
                        c.chunkFileName(j).c_str(),
                        c.chunkTraceKey(j).c_str());
    }
    return 0;
}

int
runRun(const Campaign &c, const Options &opt)
{
    CampaignRunOptions ro;
    ro.shard = opt.shard;
    ro.shardCount = opt.shardCount;
    ro.jsonDir = opt.jsonDir;
    ro.threads = opt.threads;
    ro.traceCache = opt.traceCache;

    const CampaignRunOutcome out = uasim::core::runCampaignShard(c, ro);
    for (const auto &s : out.chunks)
        std::printf("[%s] chunk %d %s: %s\n", c.name().c_str(), s.chunk,
                    s.file.c_str(),
                    s.skipped ? "skipped (published)" : "executed");
    if (opt.shardCount > 1) {
        std::printf("[%s] shard %d/%d: executed %d chunk(s), skipped %d "
                    "published chunk(s)\n",
                    c.name().c_str(), opt.shard, opt.shardCount,
                    out.executed, out.skipped);
        std::printf("[%s] chunks in %s; a run without --shard over them "
                    "assembles BENCH_%s.json\n",
                    c.name().c_str(), out.chunkDir.c_str(),
                    c.name().c_str());
        return 0;
    }
    std::printf("[%s] run: executed %d chunk(s), skipped %d published "
                "chunk(s)\n",
                c.name().c_str(), out.executed, out.skipped);
    std::printf("[%s] wrote %s\n", c.name().c_str(),
                out.artifactPath.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0)
            return usage(argv[0], /*requested=*/true);
        if (std::strcmp(argv[i], "--version") == 0) {
            std::printf("uasim-sweep %s (schema %s v%d)\n",
                        UASIM_SWEEP_VERSION,
                        uasim::core::BenchResult::schemaName,
                        uasim::core::BenchResult::schemaVersion);
            return 0;
        }
        if (std::strcmp(argv[i], "--shard") == 0) {
            if (!parseShard(operand(argc, argv, i), opt.shard,
                            opt.shardCount)) {
                std::fprintf(stderr,
                             "%s: --shard wants I/N (e.g. 0/3)\n",
                             argv[0]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--json") == 0) {
            opt.jsonDir = operand(argc, argv, i);
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            // A whole decimal int operand (0 = hardware concurrency).
            if (!parseCount(operand(argc, argv, i), opt.threads)) {
                std::fprintf(stderr, "%s: bad --threads value '%s'\n",
                             argv[0], argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--trace-cache") == 0) {
            opt.traceCache = operand(argc, argv, i);
            if (opt.traceCache.empty()) {
                // Same rule as the benches: an empty DIR (unset shell
                // variable) must not silently run uncached.
                std::fprintf(stderr, "%s: --trace-cache: empty DIR operand\n",
                             argv[0]);
                return 2;
            }
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "%s: unknown flag %s\n", argv[0],
                         argv[i]);
            return usage(argv[0], /*requested=*/false);
        } else {
            positional.push_back(argv[i]);
        }
    }
    if (positional.size() != 2)
        return usage(argv[0], /*requested=*/false);
    opt.verb = positional[0];
    opt.campaignFile = positional[1];
    if (opt.verb != "run" && opt.verb != "expand") {
        std::fprintf(stderr, "%s: unknown verb '%s'\n", argv[0],
                     opt.verb.c_str());
        return usage(argv[0], /*requested=*/false);
    }
    if (opt.verb == "run" && opt.jsonDir.empty()) {
        std::fprintf(stderr, "%s: run requires --json DIR\n", argv[0]);
        return 2;
    }

    try {
        const Campaign c = Campaign::load(opt.campaignFile);
        // Validate the shard spec against the expanded grid up front -
        // an out-of-range shard is a usage error (2), not a run failure.
        Campaign::shardChunks(c.chunkCount(), opt.shard, opt.shardCount);
        return opt.verb == "expand" ? runExpand(c, opt) : runRun(c, opt);
    } catch (const CampaignError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
}
