/**
 * @file
 * Declarative sweep campaigns (core/campaign.hh): format parsing,
 * plain-decimal integer literals, the malformed-file table, content-hash
 * identity, deterministic expansion order, shard-partition
 * completeness/disjointness, resumable chunk execution, merge-vs-
 * unsharded bit-identity over the full simResultFields() table, and
 * the uasim-sweep / `uasim-report merge` CLI contracts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "core/campaign.hh"
#include "core/result.hh"

namespace fs = std::filesystem;
using uasim::core::BenchResult;
using uasim::core::Campaign;
using uasim::core::CampaignError;
using uasim::core::CampaignRunOptions;
using uasim::core::CampaignRunOutcome;
using uasim::core::mergeShardResults;
using uasim::core::runCampaignShard;

namespace {

/// A fast 2-trace x 2-config campaign for the execution tests.
constexpr const char *kSmall = R"(# unit campaign
[campaign]
name = unit_small
execs = 2

[workload]
kernels = sad4x4, chroma4x4
variants = unaligned

[core]
base = 4w

[axes]
lat.unalignedLoadExtra = 0, 2
)";

/// A one-kernel campaign. Line numbers are fixed: execs is line 3,
/// seed line 4, the [core] entry line 9 and the [axes] entry line 11.
/// luma16x16 issues loads and permutes, so an empty load/store or
/// permute unit pool would leave them unissuable forever.
std::string
oneKernelCampaign(const std::string &execs, const std::string &seed,
                  const std::string &coreEntry,
                  const std::string &axesEntry)
{
    return "[campaign]\nname = x\nexecs = " + execs + "\nseed = " + seed +
           "\n[workload]\nkernels = luma16x16\nvariants = unaligned\n"
           "[core]\n" +
           (coreEntry.empty() ? "# none" : coreEntry) + "\n[axes]\n" +
           (axesEntry.empty() ? "# none" : axesEntry) + "\n";
}

/// Core values the engines cannot simulate: an empty unit pool never
/// issues, a negative latency wraps the cycle count, and a huge window
/// or queue cannot be allocated.
constexpr const char *kHostileCoreValues[] = {
    "units.ls = 0",
    "units.vperm = 0",
    "mem.memLatency = -100000",
    "lat.load = -100",
    "mem.l2Latency = -50",
    "lat.mispredictPenalty = -20",
    "inflight = 2000000000",
    "storeQ = 2000000000",
};

/// A malformed campaign and the diagnostic prefix it must produce.
struct LineCase {
    std::string text;
    std::string prefix;
};

/// Every integer is a plain decimal literal in long long range:
/// expressions, references, other bases, exponents and doubled signs
/// fail on their line wherever an integer is read, and the retired
/// [values] section is an unknown section.
std::vector<LineCase>
lineNumberedCases()
{
    std::vector<LineCase> out;
    out.push_back({"[campaign]\nname = x\nexecs = 1\n[values]\na = 1\n",
                   "campaign line 4: unknown section [values]"});
    for (const char *lit : {"$(x)", "1+1", "2*3", "0x10", "1e3", "--5",
                            "9223372036854775808"}) {
        const std::string v(lit);
        out.push_back({oneKernelCampaign(v, "1", "", ""),
                       "campaign line 3: "});
        out.push_back({oneKernelCampaign("1", v, "", ""),
                       "campaign line 4: "});
        out.push_back({oneKernelCampaign("1", "1", "fetchWidth = " + v, ""),
                       "campaign line 9: "});
        out.push_back(
            {oneKernelCampaign("1", "1", "", "fetchWidth = 2, " + v),
             "campaign line 11: "});
    }
    for (const char *key : {"execs", "seed"}) {
        out.push_back({std::string("[campaign]\nname = x\n") + key +
                           " = 99999999999999999999\n",
                       "campaign line 3: "});
    }
    return out;
}

fs::path
freshDir(const std::string &name)
{
    const fs::path p =
        fs::path(::testing::TempDir()) / ("campaign_" + name);
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
}

CampaignRunOutcome
runShard(const Campaign &c, const fs::path &dir, int shard, int count,
         bool sharded = true)
{
    CampaignRunOptions opt;
    opt.sharded = sharded;
    opt.shard = shard;
    opt.shardCount = count;
    opt.jsonDir = dir.string();
    opt.threads = 2;
    return runCampaignShard(c, opt);
}

struct RunResult {
    int exit = -1;
    std::string out;
};

/// Run a shell command, capturing stdout+stderr and the exit code.
RunResult
run(const std::string &cmd)
{
    RunResult r;
    std::FILE *p = ::popen((cmd + " 2>&1").c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        r.out.append(buf, n);
    const int st = ::pclose(p);
    if (WIFEXITED(st))
        r.exit = WEXITSTATUS(st);
    return r;
}

} // namespace

// ---------------------------------------------------------------------------
// parsing + deterministic expansion
// ---------------------------------------------------------------------------

TEST(CampaignParse, SmallCampaignExpands)
{
    const Campaign c = Campaign::parse(kSmall);
    EXPECT_EQ(c.name(), "unit_small");
    EXPECT_EQ(c.execs(), 2);
    EXPECT_EQ(c.seed(), 12345u);  // default
    EXPECT_EQ(c.chunkCount(), 2);
    ASSERT_EQ(c.configCount(), 2);
    // Declaration-order expansion: axis values in listed order.
    EXPECT_EQ(c.configs()[0].label, "lat.unalignedLoadExtra=0");
    EXPECT_EQ(c.configs()[1].label, "lat.unalignedLoadExtra=2");
    EXPECT_EQ(c.configs()[0].cfg.lat.unalignedLoadExtra, 0);
    EXPECT_EQ(c.configs()[1].cfg.lat.unalignedLoadExtra, 2);
    // Kernel-major trace order, kernelTraceJob key format.
    EXPECT_EQ(c.chunkTraceKey(0), "sad4x4/unaligned/2/12345");
    EXPECT_EQ(c.chunkTraceKey(1), "chroma4x4/unaligned/2/12345");
}

TEST(CampaignParse, ModelAxisAndOverrides)
{
    const Campaign c = Campaign::parse(R"(
[campaign]
name = modelgrid
execs = 2
seed = 7

[workload]
kernels = sad4x4
variants = scalar, altivec

[core]
base = 2w
storeQ = 32

[axes]
model = pipeline, ooo
fetchWidth = 2, 4
)");
    EXPECT_EQ(c.chunkCount(), 2);
    ASSERT_EQ(c.configCount(), 4);
    // First axis slowest: model-major.
    EXPECT_EQ(c.configs()[0].label, "model=pipeline,fetchWidth=2");
    EXPECT_EQ(c.configs()[1].label, "model=pipeline,fetchWidth=4");
    EXPECT_EQ(c.configs()[2].label, "model=ooo,fetchWidth=2");
    EXPECT_EQ(c.configs()[3].label, "model=ooo,fetchWidth=4");
    EXPECT_EQ(c.configs()[2].cfg.model, "ooo");
    EXPECT_EQ(c.configs()[3].cfg.fetchWidth, 4);
    // The fixed [core] override lands in every cell.
    for (const auto &cfg : c.configs())
        EXPECT_EQ(cfg.cfg.storeQ, 32);
    EXPECT_EQ(c.chunkTraceKey(0), "sad4x4/scalar/2/7");
    EXPECT_EQ(c.chunkTraceKey(1), "sad4x4/altivec/2/7");
}

TEST(CampaignParse, CanonicalIdentity)
{
    const Campaign a = Campaign::parse(kSmall);
    // Same grid, different spelling: reordered sections, extra
    // comments/whitespace, the default seed spelled out.
    const Campaign b = Campaign::parse(R"(
[workload]
kernels   =   sad4x4 ,  chroma4x4
variants = unaligned

[axes]    # the sweep
lat.unalignedLoadExtra = 0, 2

[campaign]
name = unit_small
execs = 2
seed = 12345
)");
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.contentHash(), b.contentHash());
    EXPECT_EQ(a.id(), b.id());

    // parse(canonical()) round-trips bit-identically.
    EXPECT_EQ(Campaign::parse(a.canonical()).canonical(), a.canonical());

    // Any semantic change retires the identity (and with it every
    // published chunk artifact).
    std::string bumped(kSmall);
    const auto at = bumped.find("execs = 2");
    bumped.replace(at, 9, "execs = 3");
    EXPECT_NE(Campaign::parse(bumped).contentHash(), a.contentHash());
    for (int j = 0; j < a.chunkCount(); ++j)
        EXPECT_NE(Campaign::parse(bumped).chunkHash(j), a.chunkHash(j));
}

TEST(CampaignParse, MalformedFileTable)
{
    const char *bad[] = {
        // junk before any section
        "name = x\n",
        // unknown section
        "[campaign]\nname = x\nexecs = 1\n[bogus]\na = 1\n",
        // missing name / execs / workload
        "[campaign]\nexecs = 1\n",
        "[campaign]\nname = x\n",
        "[campaign]\nname = x\nexecs = 1\n",
        // duplicate key and duplicate section
        "[campaign]\nname = x\nname = y\nexecs = 1\n",
        "[campaign]\nname = x\nexecs = 1\n[campaign]\nseed = 1\n",
        // workload errors
        "[campaign]\nname = x\nexecs = 1\n[workload]\nkernels = bogus\n"
        "variants = scalar\n",
        "[campaign]\nname = x\nexecs = 1\n[workload]\nkernels = sad4x4\n"
        "variants = mmx\n",
        "[campaign]\nname = x\nexecs = 1\n[workload]\n"
        "kernels = sad4x4, sad4x4\nvariants = scalar\n",
        // core / axes errors
        "[campaign]\nname = x\nexecs = 1\n[workload]\nkernels = sad4x4\n"
        "variants = scalar\n[core]\nbase = 16w\n",
        "[campaign]\nname = x\nexecs = 1\n[workload]\nkernels = sad4x4\n"
        "variants = scalar\n[core]\nnoSuchField = 1\n",
        "[campaign]\nname = x\nexecs = 1\n[workload]\nkernels = sad4x4\n"
        "variants = scalar\n[core]\nmodel = turandot\n",
        "[campaign]\nname = x\nexecs = 1\n[workload]\nkernels = sad4x4\n"
        "variants = scalar\n[axes]\nmodel = pipeline, vax\n",
        "[campaign]\nname = x\nexecs = 1\n[workload]\nkernels = sad4x4\n"
        "variants = scalar\n[axes]\nfetchWidth = 2, 2\n",
        "[campaign]\nname = x\nexecs = 1\n[workload]\nkernels = sad4x4\n"
        "variants = scalar\n[core]\nfetchWidth = 2\n[axes]\n"
        "fetchWidth = 2, 4\n",
        // values outside int range would narrow silently in a field
        "[campaign]\nname = x\nexecs = 1\n[workload]\nkernels = sad4x4\n"
        "variants = scalar\n[core]\nfetchWidth = 4294967298\n",
        "[campaign]\nname = x\nexecs = 1\n[workload]\nkernels = sad4x4\n"
        "variants = scalar\n[axes]\nlat.unalignedLoadExtra = 0, 4294967297\n",
        // expansion-time CoreConfig::validate() rejection
        "[campaign]\nname = x\nexecs = 1\n[workload]\nkernels = sad4x4\n"
        "variants = scalar\n[axes]\nfetchWidth = 0, 2\n",
        // execs out of range
        "[campaign]\nname = x\nexecs = 0\n[workload]\nkernels = sad4x4\n"
        "variants = scalar\n",
        // malformed lines
        "[campaign\nname = x\nexecs = 1\n",
        "[campaign]\nname = x\nexecs = 1\njust words\n",
    };
    for (const char *text : bad)
        EXPECT_THROW(Campaign::parse(text), CampaignError) << text;

    // Core values the engines cannot simulate are rejected at expansion
    // instead of hanging a run or writing a wrong artifact.
    for (const char *value : kHostileCoreValues) {
        const std::string text = oneKernelCampaign("1", "12345", value, "");
        EXPECT_THROW(Campaign::parse(text), CampaignError) << value;
    }

    // Every other integer error names its line.
    for (const LineCase &bad : lineNumberedCases()) {
        try {
            Campaign::parse(bad.text);
            ADD_FAILURE() << bad.text << "did not throw";
        } catch (const CampaignError &e) {
            EXPECT_EQ(std::string(e.what()).rfind(bad.prefix, 0), 0u)
                << e.what() << "\n" << bad.text;
        }
    }
}

TEST(CampaignParse, IntegersArePlainDecimalLiterals)
{
    const Campaign c = Campaign::parse(oneKernelCampaign(
        "007", "9223372036854775807", "lat.unalignedStoreExtra = 0",
        "lat.unalignedLoadExtra = -0, 3"));
    EXPECT_EQ(c.execs(), 7);
    EXPECT_EQ(c.seed(), 9223372036854775807u);
    ASSERT_EQ(c.configCount(), 2);
    EXPECT_EQ(c.configs()[0].label, "lat.unalignedLoadExtra=0");
    EXPECT_EQ(c.configs()[1].cfg.lat.unalignedLoadExtra, 3);
}

// ---------------------------------------------------------------------------
// shard partitioning
// ---------------------------------------------------------------------------

TEST(CampaignShard, CompleteAndDisjoint)
{
    for (int chunks : {1, 5, 8, 23}) {
        for (int n : {1, 2, 3, 8}) {
            std::vector<int> seen(std::size_t(chunks), 0);
            for (int s = 0; s < n; ++s) {
                int prev = -1;
                for (int j : Campaign::shardChunks(chunks, s, n)) {
                    ASSERT_GE(j, 0);
                    ASSERT_LT(j, chunks);
                    EXPECT_GT(j, prev) << "ascending within a shard";
                    EXPECT_EQ(j % n, s) << "round-robin ownership";
                    prev = j;
                    ++seen[std::size_t(j)];
                }
            }
            for (int j = 0; j < chunks; ++j)
                EXPECT_EQ(seen[std::size_t(j)], 1)
                    << "chunk " << j << " covered exactly once";
        }
    }
    EXPECT_THROW(Campaign::shardChunks(4, 3, 3), CampaignError);
    EXPECT_THROW(Campaign::shardChunks(4, -1, 3), CampaignError);
    EXPECT_THROW(Campaign::shardChunks(4, 0, 0), CampaignError);
}

// ---------------------------------------------------------------------------
// execution: merge-vs-unsharded bit-identity and resume
// ---------------------------------------------------------------------------

TEST(CampaignRun, MergeBitIdenticalToUnsharded)
{
    const Campaign c = Campaign::parse(kSmall);
    const fs::path fullDir = freshDir("full");
    const fs::path shardDir = freshDir("shards");

    const CampaignRunOutcome full =
        runShard(c, fullDir, 0, 1, /*sharded=*/false);
    EXPECT_EQ(full.executed, 2);
    EXPECT_EQ(fs::path(full.artifactPath).filename().string(),
              "BENCH_unit_small.json");

    std::vector<BenchResult> shards;
    for (int s = 0; s < 2; ++s) {
        const CampaignRunOutcome o = runShard(c, shardDir, s, 2);
        EXPECT_EQ(fs::path(o.artifactPath).filename().string(),
                  "BENCH_unit_small.shard" + std::to_string(s) +
                      "of2.json");
        shards.push_back(uasim::core::loadResultFile(o.artifactPath));
    }

    const BenchResult merged = mergeShardResults(shards);
    const BenchResult &ref = full.artifact;
    EXPECT_EQ(merged.bench, ref.bench);
    ASSERT_EQ(merged.cells.size(), ref.cells.size());
    ASSERT_EQ(merged.cells.size(), 4u);
    for (std::size_t i = 0; i < merged.cells.size(); ++i) {
        const auto &m = merged.cells[i];
        const auto &r = ref.cells[i];
        EXPECT_EQ(m.trace, r.trace) << i;
        EXPECT_EQ(m.config, r.config) << i;
        EXPECT_EQ(m.traceInstrs, r.traceInstrs) << i;
        // Bit-identity over the full simulated counter table.
        for (const auto &f : uasim::core::simResultFields())
            EXPECT_EQ(m.sim.*(f.member), r.sim.*(f.member))
                << f.name << " cell " << i;
    }
    EXPECT_EQ(merged.stats.cellsRun, ref.stats.cellsRun);
    EXPECT_EQ(merged.stats.instrsReplayed, ref.stats.instrsReplayed);

    // And the differ agrees end to end (params, metrics, mixes too).
    const auto diff = uasim::core::diffResults(ref, merged);
    EXPECT_EQ(diff.status, uasim::core::DiffStatus::Match)
        << (diff.regressions.empty() ? "" : diff.regressions[0]);
}

TEST(CampaignRun, ResumeSkipsPublishedChunks)
{
    const Campaign c = Campaign::parse(kSmall);
    const fs::path dir = freshDir("resume");

    const CampaignRunOutcome first = runShard(c, dir, 0, 1, false);
    EXPECT_EQ(first.executed, 2);
    EXPECT_EQ(first.skipped, 0);

    // Everything published: the re-invocation executes nothing, and
    // the artifact's simulated content is unchanged.
    const CampaignRunOutcome again = runShard(c, dir, 0, 1, false);
    EXPECT_EQ(again.executed, 0);
    EXPECT_EQ(again.skipped, 2);
    EXPECT_EQ(
        uasim::core::diffResults(first.artifact, again.artifact).status,
        uasim::core::DiffStatus::Match);

    // Delete one chunk artifact: exactly that chunk re-executes.
    ASSERT_EQ(again.chunks.size(), 2u);
    fs::remove(fs::path(again.chunkDir) / again.chunks[1].file);
    const CampaignRunOutcome redo = runShard(c, dir, 0, 1, false);
    EXPECT_EQ(redo.executed, 1);
    EXPECT_EQ(redo.skipped, 1);
    EXPECT_TRUE(redo.chunks[0].skipped);
    EXPECT_FALSE(redo.chunks[1].skipped);
    EXPECT_EQ(
        uasim::core::diffResults(first.artifact, redo.artifact).status,
        uasim::core::DiffStatus::Match);

    // A corrupt chunk artifact re-executes instead of failing.
    {
        std::ofstream bad(fs::path(redo.chunkDir) /
                          redo.chunks[0].file);
        bad << "not json";
    }
    const CampaignRunOutcome healed = runShard(c, dir, 0, 1, false);
    EXPECT_EQ(healed.executed, 1);
    EXPECT_EQ(
        uasim::core::diffResults(first.artifact, healed.artifact).status,
        uasim::core::DiffStatus::Match);
}

TEST(CampaignRun, MergeRejections)
{
    const Campaign c = Campaign::parse(kSmall);
    const fs::path dir = freshDir("reject");
    std::vector<BenchResult> shards;
    for (int s = 0; s < 2; ++s)
        shards.push_back(uasim::core::loadResultFile(
            runShard(c, dir, s, 2).artifactPath));

    // Overlap: the same shard twice.
    EXPECT_THROW(mergeShardResults({shards[0], shards[0]}),
                 CampaignError);
    // Missing shard 1.
    EXPECT_THROW(mergeShardResults({shards[0]}), CampaignError);
    // Not a shard artifact (the unsharded final form).
    const CampaignRunOutcome full =
        runShard(c, freshDir("reject_full"), 0, 1, false);
    EXPECT_THROW(mergeShardResults({full.artifact, shards[1]}),
                 CampaignError);
    // Mismatched campaign identity: a different-execs sibling.
    std::string bumped(kSmall);
    bumped.replace(bumped.find("execs = 2"), 9, "execs = 3");
    std::string renamed(bumped);  // same name, different hash
    const Campaign c2 = Campaign::parse(renamed);
    const BenchResult other = uasim::core::loadResultFile(
        runShard(c2, freshDir("reject_other"), 0, 2).artifactPath);
    EXPECT_THROW(mergeShardResults({other, shards[1]}), CampaignError);
    // Wrong per-shard cell count.
    BenchResult truncated = shards[0];
    truncated.cells.pop_back();
    EXPECT_THROW(mergeShardResults({truncated, shards[1]}),
                 CampaignError);
    // The intact pair still merges.
    EXPECT_NO_THROW(mergeShardResults({shards[1], shards[0]}));
}

// ---------------------------------------------------------------------------
// CLI contracts
// ---------------------------------------------------------------------------

TEST(CampaignCli, SweepDriver)
{
    const std::string sweep = UASIM_SWEEP_BIN;
    const std::string conf =
        std::string(UASIM_CAMPAIGN_EXAMPLES) + "/fig9_ci.conf";

    EXPECT_EQ(run(sweep + " --help").exit, 0);
    EXPECT_EQ(run(sweep + " --version").exit, 0);
    EXPECT_EQ(run(sweep).exit, 2);
    EXPECT_EQ(run(sweep + " frobnicate " + conf).exit, 2);
    EXPECT_EQ(run(sweep + " run " + conf).exit, 2)
        << "run without --json must be a usage error";
    EXPECT_EQ(run(sweep + " run /nonexistent.conf --json /tmp/x").exit,
              2);
    EXPECT_EQ(run(sweep + " run " + conf + " --shard 9 --json /tmp/x")
                  .exit,
              2)
        << "--shard wants I/N";
    // Each half of I/N is a whole decimal int; no half may wrap.
    for (const char *bad :
         {"4294967297/3", "1/4294967299", "99999999999/3"}) {
        EXPECT_EQ(run(sweep + " expand " + conf + " --shard " + bad).exit,
                  2)
            << "--shard " << bad;
    }
    EXPECT_EQ(run(sweep + " expand " + conf + " --shard 1/3").exit, 0);
    // --threads takes a whole decimal int operand, nothing else; the
    // retired replay selector is an unknown flag.
    EXPECT_EQ(run(sweep + " expand " + conf + " --threads 4").exit, 0);
    for (const char *bad : {"abc", "4x", "99999999999"}) {
        EXPECT_EQ(
            run(sweep + " expand " + conf + " --threads " + bad).exit, 2)
            << "--threads " << bad;
    }
    EXPECT_EQ(
        run(sweep + " expand " + conf + " --replay-mode batched").exit,
        2);

    const RunResult expand = run(sweep + " expand " + conf);
    EXPECT_EQ(expand.exit, 0);
    EXPECT_NE(expand.out.find("fig9_ci"), std::string::npos);
    EXPECT_NE(expand.out.find("chunk 0"), std::string::npos);
    // The committed CI campaign keeps its advertised shape.
    EXPECT_NE(expand.out.find("chunks    3"), std::string::npos);
    EXPECT_NE(expand.out.find("configs   6"), std::string::npos);

    // A malformed campaign is a usage-class failure (2).
    const fs::path badConf = freshDir("cli") / "bad.conf";
    {
        std::ofstream f(badConf);
        f << "[campaign]\nname = x\n";
    }
    EXPECT_EQ(
        run(sweep + " expand " + badConf.string()).exit, 2);

    // Integers that are not plain decimal literals, and the retired
    // [values] section, exit 2 with a line-numbered diagnostic.
    const fs::path caseConf = badConf.parent_path() / "case.conf";
    for (const LineCase &bad : lineNumberedCases()) {
        {
            std::ofstream f(caseConf);
            f << bad.text;
        }
        const RunResult r = run(sweep + " expand " + caseConf.string());
        EXPECT_EQ(r.exit, 2) << bad.text;
        EXPECT_NE(r.out.find(bad.prefix), std::string::npos)
            << r.out << "\n" << bad.text;
    }

    // Hostile core values exit 2 within seconds (timeout's 124 would
    // mean a hang) and write no artifact.
    for (const char *value : kHostileCoreValues) {
        {
            std::ofstream f(caseConf);
            f << oneKernelCampaign("1", "12345", value, "");
        }
        const fs::path out = freshDir("cli_hostile");
        const RunResult r = run("timeout 5 " + sweep + " run " +
                                caseConf.string() + " --threads 1 --json " +
                                out.string());
        EXPECT_EQ(r.exit, 2) << value << "\n" << r.out;
        EXPECT_TRUE(fs::is_empty(out)) << value;
    }

    // An empty --trace-cache DIR (unset shell variable) must not
    // silently run uncached; the benches reject it the same way.
    const RunResult emptyCache =
        run(sweep + " run " + conf + " --trace-cache '' --json " +
            freshDir("cli_cache").string());
    EXPECT_EQ(emptyCache.exit, 2);
    EXPECT_NE(emptyCache.out.find("--trace-cache: empty DIR operand"),
              std::string::npos)
        << emptyCache.out;
}

TEST(CampaignCli, ReportMerge)
{
    const std::string report = UASIM_REPORT_BIN;
    EXPECT_EQ(run(report + " merge").exit, 2);
    EXPECT_EQ(run(report + " merge /tmp/out.json").exit, 2);
    // A directory with no shard artifacts is a schema-class error.
    const fs::path empty = freshDir("merge_empty");
    EXPECT_EQ(run(report + " merge " + empty.string() + "/out.json " +
                  empty.string())
                  .exit,
              2);
    // merge is documented in --help.
    const RunResult help = run(report + " --help");
    EXPECT_EQ(help.exit, 0);
    EXPECT_NE(help.out.find("merge"), std::string::npos);
}
