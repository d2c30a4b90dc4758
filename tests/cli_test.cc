/**
 * @file
 * Locks the one command-line parser (core/cli.hh) and the binaries
 * built on it:
 *  - every rejection rule (unknown or repeated flag; missing, empty or
 *    "--"-prefixed operand; malformed, overflowing or below-minimum
 *    int; unexpected positional) names the bad token, and the exiting
 *    form prints it with the binary's flag list and exits 2;
 *  - every bench and example exits 2 on such a command line before
 *    doing any work (nothing on stdout, no --json directory);
 *  - "--json DIR" names a directory, created when missing, that
 *    receives the canonically named BENCH_<bench>.json.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "core/cli.hh"
#include "core/result.hh"

namespace fs = std::filesystem;
using uasim::core::CliArgs;
using uasim::core::CliError;
using uasim::core::CliFlag;
using uasim::core::parseArgs;
using uasim::core::parseIntOperand;

namespace {

/// A bench-like flag table: one of each kind, mins of 1, 0 and none.
std::vector<CliFlag>
table()
{
    return {{"--quick"},
            {"--json", CliFlag::String, "DIR"},
            {"--execs", CliFlag::Int, "N", 1},
            {"--threads", CliFlag::Int, "N", 0},
            {"--qp", CliFlag::Int, "QP"}};
}

CliArgs
parse(const std::vector<std::string> &args,
      std::vector<std::string> positionalNames = {})
{
    return parseArgs("prog", table(), std::move(positionalNames), args);
}

} // namespace

TEST(CliParse, RejectionTable)
{
    struct Case {
        std::vector<std::string> args;
        std::string token;
        std::string problem;
    };
    const Case cases[] = {
        {{"--bogus"}, "--bogus", "unknown flag"},
        {{"--quick", "--thread", "4"}, "--thread", "unknown flag"},
        {{"--jsn", "out.json"}, "--jsn", "unknown flag"},
        {{"--json=out"}, "--json=out", "unknown flag"},
        {{"-q"}, "-q", "unknown flag"},
        {{"--quick", "--quick"}, "--quick", "repeated flag"},
        {{"--execs", "8", "--execs", "9"}, "--execs", "repeated flag"},
        {{"--json"}, "--json", "missing DIR operand"},
        {{"--execs"}, "--execs", "missing N operand"},
        {{"--json", ""}, "--json", "empty DIR operand"},
        {{"--execs", ""}, "--execs", "empty N operand"},
        {{"--json", "--quick"}, "--json",
         "missing DIR operand (got flag \"--quick\")"},
        {{"--execs", "--quick"}, "--execs",
         "missing N operand (got flag \"--quick\")"},
        {{"--execs", "4x"}, "--execs", "invalid number \"4x\""},
        {{"--execs", "abc"}, "--execs", "invalid number \"abc\""},
        {{"--execs", " 4"}, "--execs", "invalid number \" 4\""},
        {{"--execs", "+4"}, "--execs", "invalid number \"+4\""},
        {{"--execs", "-"}, "--execs", "invalid number \"-\""},
        {{"--execs", "99999999999"}, "--execs",
         "invalid number \"99999999999\""},
        {{"--qp", "2147483648"}, "--qp", "invalid number \"2147483648\""},
        {{"--qp", "-2147483649"}, "--qp", "invalid number \"-2147483649\""},
        {{"--execs", "0"}, "--execs", "0 out of range (minimum 1)"},
        {{"--execs", "-3"}, "--execs", "-3 out of range (minimum 1)"},
        {{"--threads", "-1"}, "--threads", "-1 out of range (minimum 0)"},
        {{"stray"}, "stray", "unexpected argument"},
        {{"--quick", "out.json"}, "out.json", "unexpected argument"},
        {{""}, "", "unexpected argument"},
    };
    for (const Case &c : cases) {
        std::string joined;
        for (const std::string &a : c.args)
            joined += " '" + a + "'";
        try {
            parse(c.args);
            ADD_FAILURE() << "accepted:" << joined;
        } catch (const CliError &e) {
            EXPECT_EQ(e.token(), c.token) << joined;
            EXPECT_EQ(e.problem(), c.problem) << joined;
            EXPECT_EQ(std::string(e.what()), c.token + ": " + c.problem);
        }
    }

    // Positionals beyond the named ones are rejected too.
    try {
        parse({"a", "b"}, {"FILE"});
        ADD_FAILURE() << "accepted a second positional";
    } catch (const CliError &e) {
        EXPECT_EQ(e.token(), "b");
        EXPECT_EQ(e.problem(), "unexpected argument");
    }
}

TEST(CliParse, ReadsValuesAndDefaults)
{
    const CliArgs none = parse({});
    EXPECT_FALSE(none.has("--quick"));
    EXPECT_FALSE(none.has("--json"));
    EXPECT_EQ(none.text("--json"), "");
    EXPECT_EQ(none.text("--json", "dflt"), "dflt");
    EXPECT_EQ(none.number("--execs", 300), 300);
    EXPECT_TRUE(none.positional.empty());

    const CliArgs all =
        parse({"--quick", "--execs", "1", "--threads", "0", "--json",
               "out dir/", "--qp", "-5", "FILE"},
              {"FILE"});
    EXPECT_TRUE(all.has("--quick"));
    EXPECT_TRUE(all.has("--execs"));
    EXPECT_EQ(all.number("--execs", 300), 1);
    EXPECT_EQ(all.number("--threads", 7), 0);
    EXPECT_EQ(all.number("--qp", 34), -5);
    EXPECT_EQ(all.text("--json"), "out dir/");
    EXPECT_EQ(all.positional, std::vector<std::string>{"FILE"});

    // A "-"-prefixed operand is a value (a negative int, or a path);
    // only "--" marks a forgotten one.
    EXPECT_EQ(parse({"--json", "-dir"}).text("--json"), "-dir");
    EXPECT_EQ(parse({"--qp", "-2147483648"}).number("--qp", 0), INT_MIN);
    EXPECT_EQ(parse({"--qp", "2147483647"}).number("--qp", 0), INT_MAX);
}

TEST(CliParse, IntOperands)
{
    EXPECT_EQ(parseIntOperand("0"), 0);
    EXPECT_EQ(parseIntOperand("007"), 7);
    EXPECT_EQ(parseIntOperand("-12"), -12);
    EXPECT_EQ(parseIntOperand("2147483647"), INT_MAX);
    EXPECT_EQ(parseIntOperand("-2147483648"), INT_MIN);
    for (const char *bad :
         {"", "-", "+1", " 1", "1 ", "4x", "0x10", "1e3", "2147483648",
          "-2147483649", "99999999999", "4294967297", "--1"})
        EXPECT_FALSE(parseIntOperand(bad).has_value()) << bad;
}

TEST(CliParse, CommandLineExits2WithTokenAndFlagList)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string a0 = "/some/dir/prog";
    std::string a1 = "--execs";
    std::string a2 = "4x";
    char *argv[] = {a0.data(), a1.data(), a2.data(), nullptr};
    EXPECT_EXIT(uasim::core::parseCommandLine(3, argv, table()),
                ::testing::ExitedWithCode(2),
                "^prog: --execs: invalid number \"4x\"\n"
                "usage: prog \\[--quick\\] \\[--json DIR\\] "
                "\\[--execs N\\] \\[--threads N\\] \\[--qp QP\\]\n$");

    char *missing[] = {a0.data(), a1.data(), nullptr};
    const CliArgs args = parseArgs("prog", table(), {"FILE"}, {});
    EXPECT_EQ(args.usage(), "usage: prog [--quick] [--json DIR] "
                            "[--execs N] [--threads N] [--qp QP] FILE");
    EXPECT_EXIT(args.fail("--qp", "QP 99 outside 0..51"),
                ::testing::ExitedWithCode(2),
                "^prog: --qp: QP 99 outside 0..51\nusage: prog ");
    EXPECT_EXIT(uasim::core::parseCommandLine(2, missing, table()),
                ::testing::ExitedWithCode(2), "--execs: missing N operand");
}

#if defined(UASIM_BENCH_DIR) && defined(UASIM_EXAMPLES_DIR)

namespace {

struct RunResult {
    int exit = -1;
    std::string out;  ///< stdout only
    std::string err;
};

/// Run a shell command, capturing stdout, stderr and the exit code.
RunResult
run(const std::string &cmd)
{
    const fs::path errFile =
        fs::path(::testing::TempDir()) / "cli_test_stderr";
    RunResult r;
    std::FILE *p =
        ::popen((cmd + " 2>'" + errFile.string() + "'").c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        r.out.append(buf, n);
    const int st = ::pclose(p);
    if (WIFEXITED(st))
        r.exit = WEXITSTATUS(st);
    if (std::FILE *f = std::fopen(errFile.c_str(), "r")) {
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            r.err.append(buf, n);
        std::fclose(f);
    }
    return r;
}

fs::path
freshDir(const std::string &name)
{
    const fs::path p = fs::path(::testing::TempDir()) / ("cli_" + name);
    fs::remove_all(p);
    return p;
}

struct Binary {
    std::string name;
    fs::path path;
    const char *operandFlag;  ///< a flag taking an operand, or null
};

std::vector<Binary>
binaries()
{
    std::vector<Binary> out;
    for (const char *b :
         {"fig4_alignment_hist", "fig8_kernel_speedup",
          "fig9_latency_sensitivity", "fig10_decoder_profile",
          "table1_isa_support", "table2_configs", "table3_instr_count",
          "ablation_strategies"})
        out.push_back({b, fs::path(UASIM_BENCH_DIR) / b, "--json"});
    out.push_back({"quickstart",
                   fs::path(UASIM_EXAMPLES_DIR) / "quickstart", "--execs"});
    out.push_back({"alignment_explorer",
                   fs::path(UASIM_EXAMPLES_DIR) / "alignment_explorer",
                   "--execs"});
    out.push_back({"decode_stream",
                   fs::path(UASIM_EXAMPLES_DIR) / "decode_stream",
                   "--frames"});
    out.push_back({"motion_search",
                   fs::path(UASIM_EXAMPLES_DIR) / "motion_search",
                   nullptr});
    return out;
}

} // namespace

TEST(CliBinaries, BadCommandLineExits2BeforeAnyWork)
{
    for (const Binary &b : binaries()) {
        ASSERT_TRUE(fs::exists(b.path)) << b.path;
        struct Case {
            std::string args;
            std::string token;
        };
        std::vector<Case> cases = {{"--bogus", "--bogus"},
                                   {"--quick --quick", "--quick"},
                                   {"--quick stray", "stray"}};
        if (b.operandFlag) {
            const std::string f = b.operandFlag;
            cases.push_back({"--quick " + f, f});
            cases.push_back({"--quick " + f + " ''", f});
            cases.push_back({f + " --quick", f});
        }
        for (const Case &c : cases) {
            const RunResult r = run(b.path.string() + " " + c.args);
            EXPECT_EQ(r.exit, 2) << b.name << " " << c.args;
            EXPECT_EQ(r.out, "") << b.name << " " << c.args;
            EXPECT_EQ(r.err.rfind(b.name + ": " + c.token + ": ", 0), 0u)
                << b.name << " " << c.args << "\n" << r.err;
            EXPECT_NE(r.err.find("\nusage: " + b.name + " [--quick]"),
                      std::string::npos)
                << b.name << " " << c.args << "\n" << r.err;
        }
    }

    // A rejected bench command line creates no --json directory.
    for (const Binary &b : binaries()) {
        if (std::string(b.operandFlag ? b.operandFlag : "") != "--json")
            continue;
        const fs::path dir = freshDir("untouched_" + b.name);
        const RunResult r = run(b.path.string() + " --quick --thread 4 " +
                                "--json " + dir.string());
        EXPECT_EQ(r.exit, 2) << b.name << "\n" << r.err;
        EXPECT_FALSE(fs::exists(dir)) << b.name;
    }
}

TEST(CliBinaries, BenchHelpPrintsUsageAndExits0)
{
    // Like uasim-sweep and uasim-report: usage on stdout, nothing on
    // stderr, no run and no --json directory.
    for (const Binary &b : binaries()) {
        if (std::string(b.operandFlag ? b.operandFlag : "") != "--json")
            continue;
        const fs::path dir = freshDir("help_" + b.name);
        const RunResult r =
            run(b.path.string() + " --help --json " + dir.string());
        EXPECT_EQ(r.exit, 0) << b.name << "\n" << r.err;
        EXPECT_EQ(r.err, "") << b.name;
        EXPECT_EQ(r.out.rfind("usage: " + b.name + " [--quick]", 0), 0u)
            << b.name << "\n" << r.out;
        EXPECT_NE(r.out.find(" [--help]"), std::string::npos) << b.name;
        EXPECT_FALSE(fs::exists(dir)) << b.name;
    }
}

TEST(CliBinaries, JsonNamesADirectoryCreatedBeforeTheRun)
{
    const fs::path root = freshDir("json_dir");
    const fs::path dir = root / "missing" / "nested";
    const RunResult r =
        run(std::string(UASIM_BENCH_DIR) +
            "/fig9_latency_sensitivity --quick --threads 1 --json " +
            dir.string() + "/");
    ASSERT_EQ(r.exit, 0) << r.err;
    const fs::path artifact = dir / "BENCH_fig9_latency_sensitivity.json";
    ASSERT_TRUE(fs::is_regular_file(artifact)) << r.err;
    EXPECT_EQ(uasim::core::loadResultFile(artifact.string()).bench,
              "fig9_latency_sensitivity");
    // The directory holds just the artifact: no half-written temp.
    int entries = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1);

    // A --json operand that cannot be a directory fails before the run.
    const fs::path file = root / "plain_file";
    std::FILE *f = std::fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    const RunResult bad =
        run(std::string(UASIM_BENCH_DIR) +
            "/fig9_latency_sensitivity --quick --json " + file.string());
    EXPECT_EQ(bad.exit, 1) << bad.err;
    EXPECT_EQ(bad.out, "");
    EXPECT_NE(bad.err.find("--json: cannot create"), std::string::npos)
        << bad.err;
}

#endif // UASIM_BENCH_DIR && UASIM_EXAMPLES_DIR
