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
 * chunk(s)" summary line reports it. The same line gives the campaign's cell count and how
 * many cells this invocation simulated (SweepStats::cellsSimulated:
 * cells that differ only in fields their trace never reads run once)
 * and how many "ooo" cells it copied from their pipeline twin instead
 * (SweepStats::twinCopies).
 * A --shard I/N run with N > 1 stops there; a run without
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
 * determinism scope (core/determinism.hh): chunk addressing and shard
 * assignment must stay wall-clock- and randomness-free.
 */

#include <cstdio>
#include <exception>
#include <string>

#include "core/campaign.hh"
#include "core/cli.hh"

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
        "       %s --help | --version\n"
        "\n"
        "run options:\n"
        "  --json DIR          artifact directory (required, created if\n"
        "                      absent): resumable chunk artifacts under\n"
        "                      DIR/<campaign-id>.chunks/ plus, for a\n"
        "                      run over every chunk, BENCH_<name>.json\n"
        "  --shard I/N         run shard I of N (chunk j belongs to\n"
        "                      shard j%%N) and publish its chunks only;\n"
        "                      omit to run every chunk not yet\n"
        "                      published and assemble the artifact\n"
        "  --threads N         sweep worker threads (default 0: hardware)\n"
        "  --trace-cache DIR   persistent content-addressed trace store\n"
        "\n"
        "expand prints the campaign identity, grid shape, and chunk ->\n"
        "shard table without simulating.\n"
        "\n"
        "exit codes: 0 success, 1 run failure, 2 usage/malformed "
        "campaign\n",
        argv0, argv0, argv0);
    return requested ? 0 : 2;
}

/// Parse a --shard operand "I/N": two digit-only halves, each a whole
/// int (range against the grid is checked later).
bool
parseShard(const std::string &spec, int &shard, int &count)
{
    const std::size_t slash = spec.find('/');
    if (slash == std::string::npos ||
        spec.find_first_not_of("0123456789/") != std::string::npos)
        return false;
    const auto i = uasim::core::parseIntOperand(spec.substr(0, slash));
    const auto n = uasim::core::parseIntOperand(spec.substr(slash + 1));
    if (!i || !n)
        return false;
    shard = *i;
    count = *n;
    return true;
}

int
runExpand(const Campaign &c, const CampaignRunOptions &opt)
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
runRun(const Campaign &c, const CampaignRunOptions &opt)
{
    const CampaignRunOutcome out = uasim::core::runCampaignShard(c, opt);
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
                "chunk(s); %llu cells, %llu simulated (%llu copied from a "
                "pipeline twin)\n",
                c.name().c_str(), out.executed, out.skipped,
                static_cast<unsigned long long>(out.artifact.stats.cellsRun),
                static_cast<unsigned long long>(
                    out.artifact.stats.cellsSimulated),
                static_cast<unsigned long long>(
                    out.artifact.stats.twinCopies));
    std::printf("[%s] wrote %s\n", c.name().c_str(),
                out.artifactPath.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const uasim::core::CliArgs args = uasim::core::parseCommandLine(
        argc, argv,
        {{"--help"},
         {"--version"},
         {"--shard", uasim::core::CliFlag::String, "I/N"},
         {"--json", uasim::core::CliFlag::String, "DIR"},
         {"--threads", uasim::core::CliFlag::Int, "N", 0},
         {"--trace-cache", uasim::core::CliFlag::String, "DIR"}},
        {"VERB", "CAMPAIGN.conf"});
    if (args.has("--help"))
        return usage(argv[0], /*requested=*/true);
    if (args.has("--version")) {
        std::printf("uasim-sweep %s (schema %s v%d)\n",
                    UASIM_SWEEP_VERSION,
                    uasim::core::BenchResult::schemaName,
                    uasim::core::BenchResult::schemaVersion);
        return 0;
    }
    CampaignRunOptions opt;
    if (args.has("--shard") &&
        !parseShard(args.text("--shard"), opt.shard, opt.shardCount))
        args.fail("--shard", "wants I/N (e.g. 0/3), got \"" +
                                 args.text("--shard") + "\"");
    opt.jsonDir = args.text("--json");
    opt.threads = args.number("--threads", 0);
    opt.traceCache = args.text("--trace-cache");
    if (args.positional.size() != 2)
        return usage(argv[0], /*requested=*/false);
    const std::string &verb = args.positional[0];
    if (verb != "run" && verb != "expand") {
        std::fprintf(stderr, "%s: unknown verb '%s'\n", argv[0],
                     verb.c_str());
        return usage(argv[0], /*requested=*/false);
    }
    if (verb == "run" && opt.jsonDir.empty()) {
        std::fprintf(stderr, "%s: run requires --json DIR\n", argv[0]);
        return 2;
    }

    try {
        const Campaign c = Campaign::load(args.positional[1]);
        // Validate the shard spec against the expanded grid up front -
        // an out-of-range shard is a usage error (2), not a run failure.
        Campaign::shardChunks(c.chunkCount(), opt.shard, opt.shardCount);
        return verb == "expand" ? runExpand(c, opt) : runRun(c, opt);
    } catch (const CampaignError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
}
