/**
 * @file
 * Declarative sweep campaigns (core/campaign.hh): format parsing,
 * plain-decimal integer literals, the malformed-file table, content-hash
 * identity, deterministic expansion order, shard-partition
 * completeness/disjointness, resumable chunk execution (edited chunks
 * re-execute, a SIGKILLed run keeps its published chunks), shards-
 * then-assemble vs unsharded bit-identity over the full
 * simResultFields() table, concurrent writers sharing one chunk
 * directory and trace store, and the uasim-sweep / uasim-report CLI
 * contracts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/campaign.hh"
#include "core/result.hh"
#include "timing/config.hh"

namespace fs = std::filesystem;
using uasim::core::BenchResult;
using uasim::core::Campaign;
using uasim::core::CampaignError;
using uasim::core::CampaignRunOptions;
using uasim::core::CampaignRunOutcome;
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
         const std::string &traceCache = "")
{
    CampaignRunOptions opt;
    opt.shard = shard;
    opt.shardCount = count;
    opt.jsonDir = dir.string();
    opt.threads = 2;
    opt.traceCache = traceCache;
    return runCampaignShard(c, opt);
}

/// Number of published (renamed-into-place) chunk artifacts in @p dir.
int
publishedChunks(const fs::path &dir)
{
    std::error_code ec;
    int n = 0;
    for (const auto &e : fs::directory_iterator(dir, ec)) {
        const std::string name = e.path().filename().string();
        n += name.starts_with("chunk-") && name.ends_with(".json");
    }
    return n;
}

/// Replace the first `"key": <digits>` in the file at @p path with
/// @p value: a hand edit that keeps the artifact valid JSON.
void
editFirstNumber(const fs::path &path, const std::string &key,
                const std::string &value)
{
    std::stringstream buf;
    buf << std::ifstream(path).rdbuf();
    std::string text = buf.str();
    const std::string tag = "\"" + key + "\": ";
    const std::size_t at = text.find(tag);
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t begin = at + tag.size();
    const std::size_t end = text.find_first_not_of("0123456789", begin);
    ASSERT_NE(text.substr(begin, end - begin), value) << key;
    text.replace(begin, end - begin, value);
    std::ofstream(path, std::ios::trunc) << text;
}

/// Start uasim-sweep with @p args, stdout/stderr discarded.
pid_t
spawnSweep(const std::vector<std::string> &args)
{
    std::vector<std::string> all = {UASIM_SWEEP_BIN};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : all)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    pid_t pid = -1;
    if (posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ) != 0)
        pid = -1;
    posix_spawn_file_actions_destroy(&fa);
    return pid;
}

/// Wait for @p pid. @return its exit code, or -1 if it did not exit.
int
waitExit(pid_t pid)
{
    int st = 0;
    if (pid < 0 || ::waitpid(pid, &st, 0) != pid || !WIFEXITED(st))
        return -1;
    return WEXITSTATUS(st);
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

TEST(CampaignParse, CoreFieldsAreTheConfigTable)
{
    // The campaign keys are exactly timing::coreConfigFields(), so a
    // field validate() checks is always settable (vprPhys once was not).
    std::vector<std::string> table;
    for (const auto &f : uasim::timing::coreConfigFields())
        table.push_back(f.name);
    std::sort(table.begin(), table.end());
    EXPECT_EQ(uasim::core::campaignCoreFields(), table);

    // docs/CAMPAIGNS.md's [core] section names every one of them.
    std::ifstream in(UASIM_CAMPAIGNS_DOC);
    ASSERT_TRUE(in) << UASIM_CAMPAIGNS_DOC;
    std::stringstream doc;
    doc << in.rdbuf();
    const std::string text = doc.str();
    const std::size_t begin = text.find("### `[core]`");
    ASSERT_NE(begin, std::string::npos);
    const std::size_t end = text.find("\n### ", begin + 1);
    const std::string section = text.substr(begin, end - begin);
    for (const std::string &name : table)
        EXPECT_NE(section.find("`" + name + "`"), std::string::npos)
            << name << " is missing from the [core] section";

    const Campaign c = Campaign::parse(
        oneKernelCampaign("1", "1", "vprPhys = 70", "gprPhys = 40, 50"));
    ASSERT_EQ(c.configCount(), 2);
    for (const auto &cfg : c.configs())
        EXPECT_EQ(cfg.cfg.vprPhys, 70);
    EXPECT_EQ(c.configs()[1].cfg.gprPhys, 50);
    try {
        Campaign::parse(oneKernelCampaign("1", "1", "vprPhys = 0", ""));
        ADD_FAILURE() << "vprPhys = 0 expanded";
    } catch (const CampaignError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "CoreConfig: vprPhys out of range [1, 65536]"),
                  std::string::npos)
            << e.what();
    }
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

    const CampaignRunOutcome full = runShard(c, fullDir, 0, 1);
    EXPECT_EQ(full.executed, 2);
    EXPECT_EQ(fs::path(full.artifactPath).filename().string(),
              "BENCH_unit_small.json");

    // Two shards into one directory publish their chunks only.
    for (int s = 0; s < 2; ++s) {
        const CampaignRunOutcome o = runShard(c, shardDir, s, 2);
        EXPECT_EQ(o.executed, 1);
        EXPECT_TRUE(o.artifactPath.empty());
    }
    for (const auto &e : fs::directory_iterator(shardDir))
        EXPECT_FALSE(e.path().filename().string().starts_with("BENCH_"))
            << e.path();

    // One unsharded run over that directory assembles the campaign
    // artifact without executing anything.
    const CampaignRunOutcome assembled = runShard(c, shardDir, 0, 1);
    EXPECT_EQ(assembled.executed, 0);
    EXPECT_EQ(assembled.skipped, 2);
    const BenchResult merged =
        uasim::core::loadResultFile(assembled.artifactPath);
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

TEST(CampaignRun, ShardsCopiedTogetherAssembleLikeUnsharded)
{
    // Shards on separate machines: each publishes into its own
    // directory, their chunk directories are copied into one, and an
    // unsharded run there executes nothing and assembles the
    // unsharded artifact.
    const Campaign c = Campaign::parse(kSmall);
    const CampaignRunOutcome full = runShard(c, freshDir("copy_full"), 0, 1);
    const fs::path unionDir = freshDir("copy_union");
    for (int s = 0; s < 2; ++s) {
        const fs::path own = freshDir("copy_m" + std::to_string(s));
        EXPECT_EQ(runShard(c, own, s, 2).executed, 1);
        for (const auto &e : fs::directory_iterator(own)) {
            EXPECT_TRUE(e.path().extension() == ".chunks") << e.path();
            fs::copy(e.path(), unionDir / e.path().filename(),
                     fs::copy_options::recursive);
        }
    }
    const CampaignRunOutcome assembled = runShard(c, unionDir, 0, 1);
    EXPECT_EQ(assembled.executed, 0);
    EXPECT_EQ(assembled.skipped, 2);
    const auto diff = uasim::core::diffResults(
        full.artifact, uasim::core::loadResultFile(assembled.artifactPath));
    EXPECT_EQ(diff.status, uasim::core::DiffStatus::Match)
        << (diff.regressions.empty() ? "" : diff.regressions[0]);
}

TEST(CampaignRun, ResumeSkipsPublishedChunks)
{
    const Campaign c = Campaign::parse(kSmall);
    const fs::path dir = freshDir("resume");

    const CampaignRunOutcome first = runShard(c, dir, 0, 1);
    EXPECT_EQ(first.executed, 2);
    EXPECT_EQ(first.skipped, 0);

    // Everything published: the re-invocation executes nothing, and
    // the artifact's simulated content is unchanged.
    const CampaignRunOutcome again = runShard(c, dir, 0, 1);
    EXPECT_EQ(again.executed, 0);
    EXPECT_EQ(again.skipped, 2);
    EXPECT_EQ(
        uasim::core::diffResults(first.artifact, again.artifact).status,
        uasim::core::DiffStatus::Match);

    // Delete one chunk artifact: exactly that chunk re-executes.
    ASSERT_EQ(again.chunks.size(), 2u);
    fs::remove(fs::path(again.chunkDir) / again.chunks[1].file);
    const CampaignRunOutcome redo = runShard(c, dir, 0, 1);
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
    const CampaignRunOutcome healed = runShard(c, dir, 0, 1);
    EXPECT_EQ(healed.executed, 1);
    EXPECT_EQ(
        uasim::core::diffResults(first.artifact, healed.artifact).status,
        uasim::core::DiffStatus::Match);

    // A hand-edited chunk that is still valid JSON no longer matches
    // the digest of its cells: exactly that chunk re-executes, and the
    // artifact is the uninterrupted one again.
    const fs::path edited = fs::path(healed.chunkDir) / healed.chunks[1].file;
    const std::pair<const char *, const char *> edits[] = {
        {"cycles", "1"}, {"int_alu", "999999"}, {"traceInstrs", "999999"}};
    for (const auto &[key, value] : edits) {
        editFirstNumber(edited, key, value);
        const CampaignRunOutcome o = runShard(c, dir, 0, 1);
        EXPECT_EQ(o.executed, 1) << key;
        EXPECT_TRUE(o.chunks[0].skipped) << key;
        EXPECT_FALSE(o.chunks[1].skipped) << key;
        EXPECT_EQ(
            uasim::core::diffResults(first.artifact, o.artifact).status,
            uasim::core::DiffStatus::Match)
            << key;
    }

    // Another chunk's intact artifact under this chunk's name (a bad
    // union copy) is not this chunk: it re-executes too.
    fs::copy_file(fs::path(healed.chunkDir) / healed.chunks[0].file, edited,
                  fs::copy_options::overwrite_existing);
    const CampaignRunOutcome foreign = runShard(c, dir, 0, 1);
    EXPECT_EQ(foreign.executed, 1);
    EXPECT_FALSE(foreign.chunks[1].skipped);
    EXPECT_EQ(
        uasim::core::diffResults(first.artifact, foreign.artifact).status,
        uasim::core::DiffStatus::Match);
}

TEST(CampaignRun, SigkillKeepsPublishedChunks)
{
    // SIGKILL a single-threaded run as soon as its first chunk is
    // published. Chunks publish as their groups complete, so that is
    // long before the last trace is even recorded into the store; every
    // chunk finished before the kill survives, and the re-run executes
    // only the missing ones.
    const std::string conf =
        std::string(UASIM_CAMPAIGN_EXAMPLES) + "/nightly_mid.conf";
    const Campaign c = Campaign::load(conf);
    const fs::path dir = freshDir("sigkill");
    const fs::path store = freshDir("sigkill_store");
    const fs::path chunkDir = dir / (c.id() + ".chunks");

    const pid_t pid =
        spawnSweep({"run", conf, "--threads", "1", "--json", dir.string(),
                    "--trace-cache", store.string()});
    ASSERT_GT(pid, 0);
    int st = 0;
    bool exited = false;
    while (publishedChunks(chunkDir) == 0) {
        if (::waitpid(pid, &st, WNOHANG) == pid) {
            exited = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!exited) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &st, 0);
    }
    ASSERT_TRUE(WIFSIGNALED(st)) << "the run ended before the kill";

    int recorded = 0;
    for (const auto &e : fs::directory_iterator(store))
        recorded += e.path().extension() == ".uatrace";
    EXPECT_LT(recorded, c.chunkCount())
        << "no chunk was published until every trace was recorded";
    const int published = publishedChunks(chunkDir);
    EXPECT_GE(published, 1);
    const CampaignRunOutcome resumed =
        runShard(c, dir, 0, 1, store.string());
    EXPECT_EQ(resumed.executed, c.chunkCount() - published);
    EXPECT_EQ(resumed.skipped, published);

    const CampaignRunOutcome whole = runShard(c, freshDir("sigkill_ref"), 0, 1);
    EXPECT_EQ(
        uasim::core::diffResults(whole.artifact, resumed.artifact).status,
        uasim::core::DiffStatus::Match);
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
    const fs::path outOfRange = freshDir("cli_shard_range");
    EXPECT_EQ(run(sweep + " run " + conf + " --shard 3/3 --json " +
                  outOfRange.string())
                  .exit,
              2)
        << "shard index must be below the shard count";
    EXPECT_TRUE(fs::is_empty(outOfRange));
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
    // The shared parser's rules: each rejection names its token.
    for (const auto &[args, message] :
         std::vector<std::pair<std::string, std::string>>{
             {" --threads 4 --threads 4", "--threads: repeated flag"},
             {" --thread 4", "--thread: unknown flag"},
             {" --shard -1/3", "--shard: wants I/N"},
             {" --json --threads 4", "--json: missing DIR operand"},
             {" --json ''", "--json: empty DIR operand"},
             {" extra", "extra: unexpected argument"}}) {
        const RunResult r = run(sweep + " expand " + conf + args);
        EXPECT_EQ(r.exit, 2) << args;
        EXPECT_NE(r.out.find(message), std::string::npos) << r.out;
    }
    // A campaign path that is a directory cannot be read; it is not an
    // empty campaign missing its [campaign] section.
    for (const std::string &path :
         {freshDir("cli_dir").string(), std::string("/nonexistent.conf")}) {
        const RunResult r = run(sweep + " expand " + path);
        EXPECT_EQ(r.exit, 2) << path;
        EXPECT_NE(r.out.find("cannot read campaign file: " + path),
                  std::string::npos)
            << r.out;
    }

    const RunResult expand = run(sweep + " expand " + conf);
    EXPECT_EQ(expand.exit, 0);
    EXPECT_NE(expand.out.find("fig9_ci"), std::string::npos);
    EXPECT_NE(expand.out.find("chunk 0"), std::string::npos);
    // The committed CI campaign keeps its advertised shape and identity.
    EXPECT_NE(expand.out.find("hash      524a472fba7b5694"),
              std::string::npos);
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

TEST(CampaignCli, RunSummaryCountsSimulatedCells)
{
    // An Altivec trace on an unaligned-latency axis: three logical
    // cells, one simulation. The artifact keeps counting the three
    // (gated) and reports the one in its informational block.
    const fs::path dir = freshDir("cli_dedup");
    const fs::path conf = dir / "altivec.conf";
    {
        std::ofstream f(conf);
        f << "[campaign]\nname = dedup\nexecs = 2\n"
             "[workload]\nkernels = sad16x16\nvariants = altivec\n"
             "[axes]\nlat.unalignedLoadExtra = 0, 1, 2\n";
    }
    const RunResult r = run(std::string(UASIM_SWEEP_BIN) + " run " +
                            conf.string() + " --json " +
                            (dir / "out").string());
    ASSERT_EQ(r.exit, 0) << r.out;
    EXPECT_NE(r.out.find("3 cells, 1 simulated (0 copied from a pipeline "
                         "twin)"),
              std::string::npos)
        << r.out;
    const BenchResult art = uasim::core::loadResultFile(
        (dir / "out" / "BENCH_dedup.json").string());
    EXPECT_EQ(art.stats.cellsRun, 3u);
    EXPECT_EQ(art.stats.cellsSimulated, 1u);
}

TEST(CampaignCli, Fig9CiCopiesOoOCellsFromPipelineTwins)
{
    // The committed CI campaign locks the twin shortcut: no luma16x16
    // load ever blocks on an older store, so its three "ooo" cells copy
    // their "pipeline" twins; chroma8x8 and sad16x16 loads do block, so
    // their "ooo" cells take a second replay pass (3 groups, one pass
    // each, plus 2). A change that silently stops sharing fails here.
    const fs::path dir = freshDir("cli_twin");
    const RunResult r =
        run(std::string(UASIM_SWEEP_BIN) + " run " +
            UASIM_CAMPAIGN_EXAMPLES + "/fig9_ci.conf --threads 1 --json " +
            dir.string());
    ASSERT_EQ(r.exit, 0) << r.out;
    EXPECT_NE(r.out.find("18 cells, 15 simulated (3 copied from a pipeline "
                         "twin)"),
              std::string::npos)
        << r.out;
    const BenchResult art = uasim::core::loadResultFile(
        (dir / "BENCH_fig9_ci.json").string());
    EXPECT_EQ(art.stats.cellsRun, 18u);
    EXPECT_EQ(art.stats.cellsSimulated, 15u);
    EXPECT_EQ(art.stats.twinCopies, 3u);
    EXPECT_EQ(art.stats.replayPasses, 5u);
    EXPECT_GT(art.stats.blockedLoads, 0u);
    EXPECT_GT(art.stats.idleJumpedCycles, 0u);
}

TEST(CampaignCli, ReportHasNoMergeVerb)
{
    // Shards are assembled by an unsharded `uasim-sweep run`; the
    // report tool only diffs and refreshes.
    const std::string report = UASIM_REPORT_BIN;
    const fs::path dir = freshDir("merge_retired");
    EXPECT_EQ(run(report + " merge " + dir.string() + "/out " +
                  dir.string())
                  .exit,
              2);
    const RunResult help = run(report + " --help");
    EXPECT_EQ(help.exit, 0);
    EXPECT_EQ(help.out.find("merge"), std::string::npos) << help.out;
}

TEST(ReportTool, VersionSelfReport)
{
    const RunResult v =
        run(std::string(UASIM_REPORT_BIN) + " --version");
    EXPECT_EQ(v.exit, 0);
    EXPECT_NE(v.out.find("uasim-report"), std::string::npos);
    // The self-report names the artifact schema it gates.
    EXPECT_NE(v.out.find("uasim-bench-result"), std::string::npos);
    EXPECT_NE(v.out.find("schema"), std::string::npos);
}

TEST(CampaignCli, ConcurrentWritersShareDirAndStore)
{
    const std::string conf =
        std::string(UASIM_CAMPAIGN_EXAMPLES) + "/fig9_ci.conf";
    const Campaign c = Campaign::load(conf);
    const CampaignRunOutcome ref = runShard(c, freshDir("race_ref"), 0, 1);
    const auto matchesRef = [&ref](const BenchResult &r) {
        return uasim::core::diffResults(ref.artifact, r).status ==
               uasim::core::DiffStatus::Match;
    };

    // Two shards at once into one --json DIR and one --trace-cache.
    const fs::path shardDir = freshDir("race_shards");
    const fs::path shardStore = freshDir("race_shards_store");
    std::vector<pid_t> pids;
    for (const char *spec : {"0/2", "1/2"})
        pids.push_back(spawnSweep({"run", conf, "--shard", spec,
                                   "--threads", "2", "--json",
                                   shardDir.string(), "--trace-cache",
                                   shardStore.string()}));
    for (pid_t pid : pids)
        EXPECT_EQ(waitExit(pid), 0);
    const CampaignRunOutcome assembled = runShard(c, shardDir, 0, 1);
    EXPECT_EQ(assembled.executed, 0);
    EXPECT_TRUE(matchesRef(assembled.artifact));

    // Two whole runs at once record the same keys into one store and
    // publish the same chunks and artifact into one directory.
    const fs::path runDir = freshDir("race_runs");
    const fs::path runStore = freshDir("race_runs_store");
    pids.clear();
    for (int i = 0; i < 2; ++i)
        pids.push_back(spawnSweep({"run", conf, "--threads", "2", "--json",
                                   runDir.string(), "--trace-cache",
                                   runStore.string()}));
    for (pid_t pid : pids)
        EXPECT_EQ(waitExit(pid), 0);
    EXPECT_TRUE(matchesRef(uasim::core::loadResultFile(
        (runDir / "BENCH_fig9_ci.json").string())));

    // Both stores now serve every trace: a warm run records nothing.
    for (const fs::path &store : {shardStore, runStore}) {
        const CampaignRunOutcome warm =
            runShard(c, freshDir("race_warm"), 0, 1, store.string());
        EXPECT_EQ(warm.executed, c.chunkCount());
        EXPECT_EQ(warm.artifact.stats.tracesRecorded, 0u) << store;
        EXPECT_EQ(warm.artifact.stats.tracesLoaded,
                  std::uint64_t(c.chunkCount()))
            << store;
        EXPECT_TRUE(matchesRef(warm.artifact));
    }
}
