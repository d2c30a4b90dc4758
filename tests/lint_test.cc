/**
 * @file
 * uasim-lint conformance: every rule fires on its known-bad fixture
 * with the exact rule id and exit code, stays silent on the matching
 * known-good fixture, and the suppression syntax silences exactly the
 * named rule. Also covers the tool self-reports (`uasim-lint
 * --version`, `uasim-report --version`) the CI lint job relies on.
 *
 * The fixtures live in tests/lint_fixtures/ and are scanned in
 * fixture mode (`--as <vpath> <file>`): the vpath decides which rules
 * are in scope, so one snippet can serve as known-bad under one path
 * (src/timing/ for sim-determinism) and known-good under another.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/wait.h>

namespace {

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

std::string
fixture(const std::string &name)
{
    return std::string(UASIM_LINT_FIXTURES) + "/" + name;
}

std::string
lint(const std::string &args)
{
    return std::string(UASIM_LINT_BIN) + " " + args;
}

/// Occurrences of `needle` in `hay`.
int
countOf(const std::string &hay, const std::string &needle)
{
    int count = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++count;
    return count;
}

} // namespace

TEST(LintTool, VersionAndRuleList)
{
    const RunResult v = run(lint("--version"));
    EXPECT_EQ(v.exit, 0);
    EXPECT_NE(v.out.find("uasim-lint"), std::string::npos);

    const RunResult rules = run(lint("--list-rules"));
    EXPECT_EQ(rules.exit, 0);
    EXPECT_EQ(rules.out, "sim-determinism\n");
}

TEST(LintTool, UsageErrors)
{
    EXPECT_EQ(run(lint("")).exit, 2);
    EXPECT_EQ(run(lint("--compdb /nonexistent.json")).exit, 2);
    // The per-TU compile-flag option went with the retired ISA rule,
    // and the rule selector with the retired checked-io rule.
    for (const char *flag : {"--flags -O2", "--check sim-determinism"}) {
        EXPECT_EQ(run(lint(std::string(flag) + " --as src/core/x.cc " +
                           fixture("sim_determinism_good.cc")))
                      .exit,
                  2)
            << flag;
    }
}

TEST(LintTool, SimDeterminism)
{
    const RunResult bad =
        run(lint("--as src/timing/fx_determinism.cc " +
                 fixture("sim_determinism_bad.cc")));
    EXPECT_EQ(bad.exit, 1);
    EXPECT_EQ(countOf(bad.out, "[sim-determinism]"), 5);
    // Exact finding lines: the two includes, the steady_clock use,
    // the rand() call, and the unordered_map member.
    for (const char *loc :
         {"fx_determinism.cc:5:", "fx_determinism.cc:7:",
          "fx_determinism.cc:12:", "fx_determinism.cc:14:",
          "fx_determinism.cc:17:"})
        EXPECT_NE(bad.out.find(loc), std::string::npos) << loc;

    const RunResult good =
        run(lint("--as src/timing/fx_determinism.cc " +
                 fixture("sim_determinism_good.cc")));
    EXPECT_EQ(good.exit, 0) << good.out;

    // The same bad bytes outside a simulated path are out of scope.
    const RunResult outside = run(lint(
        "--as bench/fx_timer.cc " + fixture("sim_determinism_bad.cc")));
    EXPECT_EQ(outside.exit, 0) << outside.out;
}

TEST(LintTool, SimDeterminismCampaignScope)
{
    // The campaign layer (library and driver) is inside the
    // determinism scope: an RNG-shuffled chunk order and an unordered
    // published-chunk set must be findings under both vpaths.
    for (const char *vpath :
         {"src/core/campaign.cc", "tools/uasim_sweep.cc"}) {
        const RunResult bad =
            run(lint(std::string("--as ") + vpath + " " +
                     fixture("campaign_determinism_bad.cc")));
        EXPECT_EQ(bad.exit, 1) << vpath;
        EXPECT_GE(countOf(bad.out, "[sim-determinism]"), 3) << bad.out;
        EXPECT_NE(bad.out.find("random_device"), std::string::npos)
            << vpath;
        EXPECT_NE(bad.out.find("unordered"), std::string::npos) << vpath;
    }

    // The same bytes under a non-campaign tools path stay out of
    // scope (the extension covers the sweep driver, not every tool).
    const RunResult outside =
        run(lint("--as tools/uasim_report.cc " +
                 fixture("campaign_determinism_bad.cc")));
    EXPECT_EQ(outside.exit, 0) << outside.out;
}

TEST(LintTool, SuppressionSyntax)
{
    const RunResult same = run(lint("--as src/timing/fx_s1.cc " +
                                    fixture("suppress_same_line.cc")));
    EXPECT_EQ(same.exit, 0) << same.out;

    const RunResult above = run(lint(
        "--as src/timing/fx_s2.cc " + fixture("suppress_line_above.cc")));
    EXPECT_EQ(above.exit, 0) << above.out;

    // allow(<other-rule>) must not silence a different rule.
    const RunResult wrong = run(lint(
        "--as src/timing/fx_s3.cc " + fixture("suppress_wrong_rule.cc")));
    EXPECT_EQ(wrong.exit, 1);
    EXPECT_EQ(countOf(wrong.out, "[sim-determinism]"), 1);
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
