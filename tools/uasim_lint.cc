/**
 * @file
 * uasim-lint: the repo-specific invariant checker (the rules generic
 * tools cannot express; see docs/INVARIANTS.md for each rule's why).
 *
 * Driven by the build's compile_commands.json: every translation unit
 * under the repo root is scanned (plus the headers under src/, tools/
 * and bench/, which have no compile-db entry of their own), and each
 * rule applies to the repo paths it governs:
 *
 *   sim-determinism  no wall-clock, randomness, or unordered-
 *                    container use inside simulated paths
 *                    (src/timing, src/core/sweep.*,
 *                    src/core/experiment.*, src/core/campaign.*,
 *                    tools/uasim_sweep*). The only legitimate
 *                    exceptions - wall-clock feeding the *Seconds
 *                    informational stats - carry a visible
 *                    suppression comment.
 *
 * Two invariants are compile errors instead of rules here: field-table
 * completeness (src/core/field_table.hh) and checked file I/O
 * (src/trace/file_io.hh).
 *
 * Suppression syntax: a comment containing
 *
 *     uasim-lint: allow(<rule>[,<rule>...])
 *
 * on the same line as the finding, or on the line directly above it,
 * suppresses that rule there - and only that rule, so exceptions stay
 * visible (and greppable) in diffs.
 *
 * Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hh"
#include "trace/file_io.hh"

namespace fs = std::filesystem;

namespace {

constexpr const char *lintVersion = "1.0";

const std::vector<std::string> &
ruleNames()
{
    static const std::vector<std::string> rules = {"sim-determinism"};
    return rules;
}

int
usage(bool requested)
{
    std::fprintf(
        requested ? stdout : stderr,
        "usage: uasim-lint --compdb FILE [--root DIR]\n"
        "       uasim-lint --as VPATH FILE [--as ...]\n"
        "\n"
        "  --compdb FILE   scan every repo TU of a "
        "compile_commands.json\n"
        "                  (plus src//tools//bench/ headers)\n"
        "  --root DIR      repo root the compile-db paths are "
        "relative to\n"
        "                  (default: the compile-db's parent "
        "directory's parent)\n"
        "  --as VPATH FILE scan FILE as if it were repo path VPATH\n"
        "                  (fixture mode; rules scope by VPATH)\n"
        "  --list-rules    print the rule ids and exit 0\n"
        "  --version       print version + rule ids and exit 0\n"
        "\n"
        "exit codes: 0 clean, 1 findings, 2 usage/IO error\n");
    return requested ? 0 : 2;
}

struct Finding {
    std::string vpath;
    int line = 0;
    std::string rule;
    std::string message;

    bool
    operator<(const Finding &o) const
    {
        if (vpath != o.vpath)
            return vpath < o.vpath;
        if (line != o.line)
            return line < o.line;
        if (rule != o.rule)
            return rule < o.rule;
        return message < o.message;
    }
};

/// One scanned source file: raw text, a same-length "stripped" copy
/// with comments and string/char literals blanked (so patterns never
/// match inside them), and the per-line suppression sets parsed from
/// the comments.
struct Source {
    std::string vpath;       //!< repo-relative path (rule scoping key)
    std::string raw;
    std::string stripped;
    std::vector<std::size_t> lineStart;  //!< offset of each line
    /// line -> rules suppressed on that line (self or line-above).
    std::map<int, std::set<std::string>> allow;

    int
    lineOf(std::size_t off) const
    {
        auto it = std::upper_bound(lineStart.begin(), lineStart.end(),
                                   off);
        return int(it - lineStart.begin());
    }

    bool
    allowed(int line, const std::string &rule) const
    {
        for (int l : {line, line - 1}) {
            auto it = allow.find(l);
            if (it != allow.end() && it->second.count(rule))
                return true;
        }
        return false;
    }
};

/// Parse "uasim-lint: allow(a,b)" occurrences out of a comment.
void
parseAllows(const std::string &comment, int firstLine, int lastLine,
            std::map<int, std::set<std::string>> &allow)
{
    static const std::string marker = "uasim-lint: allow(";
    std::size_t at = 0;
    while ((at = comment.find(marker, at)) != std::string::npos) {
        const std::size_t open = at + marker.size();
        const std::size_t close = comment.find(')', open);
        if (close == std::string::npos)
            break;
        std::string inside = comment.substr(open, close - open);
        std::string rule;
        std::stringstream ss(inside);
        while (std::getline(ss, rule, ',')) {
            rule.erase(0, rule.find_first_not_of(" \t"));
            rule.erase(rule.find_last_not_of(" \t") + 1);
            if (rule.empty())
                continue;
            // The suppression covers every line the comment touches
            // plus the next line (the comment-above form).
            for (int l = firstLine; l <= lastLine + 1; ++l)
                allow[l].insert(rule);
        }
        at = close;
    }
}

/// Build .stripped/.allow from .raw.
void
stripSource(Source &src)
{
    const std::string &in = src.raw;
    std::string out(in.size(), ' ');
    src.lineStart.push_back(0);
    for (std::size_t i = 0; i < in.size(); ++i) {
        if (in[i] == '\n')
            src.lineStart.push_back(i + 1);
    }

    enum class St { Code, Line, Block, Str, Chr };
    St st = St::Code;
    std::size_t tokStart = 0;  //!< start of current comment
    std::string tok;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        const char n = i + 1 < in.size() ? in[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                tokStart = i;
                tok.clear();
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                tokStart = i;
                tok.clear();
                ++i;
            } else if (c == '"') {
                st = St::Str;
                out[i] = '"';
            } else if (c == '\'') {
                st = St::Chr;
                out[i] = '\'';
            } else {
                out[i] = c;
            }
            break;
        case St::Line:
            if (c == '\n') {
                out[i] = '\n';
                parseAllows(tok, src.lineOf(tokStart),
                            src.lineOf(tokStart), src.allow);
                st = St::Code;
            } else {
                tok += c;
            }
            break;
        case St::Block:
            if (c == '*' && n == '/') {
                parseAllows(tok, src.lineOf(tokStart), src.lineOf(i),
                            src.allow);
                ++i;
                st = St::Code;
            } else {
                if (c == '\n')
                    out[i] = '\n';
                tok += c;
            }
            break;
        case St::Str:
            if (c == '\\' && n != '\0') {
                ++i;
            } else if (c == '"') {
                out[i] = '"';
                st = St::Code;
            } else if (c == '\n') {
                out[i] = '\n';
            }
            break;
        case St::Chr:
            if (c == '\\' && n != '\0') {
                ++i;
            } else if (c == '\'') {
                out[i] = '\'';
                st = St::Code;
            } else if (c == '\n') {
                out[i] = '\n';
                st = St::Code;  // unterminated; resync
            }
            break;
        }
    }
    if (st == St::Line)
        parseAllows(tok, src.lineOf(tokStart), src.lineOf(tokStart),
                    src.allow);
    src.stripped = std::move(out);
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Offsets where identifier @p name occurs with word boundaries.
std::vector<std::size_t>
findIdent(const std::string &text, const std::string &name)
{
    std::vector<std::size_t> hits;
    std::size_t at = 0;
    while ((at = text.find(name, at)) != std::string::npos) {
        const bool lb = at == 0 || !identChar(text[at - 1]);
        const std::size_t end = at + name.size();
        const bool rb = end >= text.size() || !identChar(text[end]);
        if (lb && rb)
            hits.push_back(at);
        at = end;
    }
    return hits;
}

/// Is the identifier at @p at followed (past whitespace) by '('?
bool
isCall(const std::string &text, std::size_t at, std::size_t len)
{
    std::size_t i = at + len;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    return i < text.size() && text[i] == '(';
}

class Linter
{
  public:
    void
    addFinding(const Source &src, int line, const std::string &rule,
               const std::string &msg)
    {
        if (src.allowed(line, rule))
            return;
        findings_.insert({src.vpath, line, rule, msg});
    }

    void checkSimDeterminism(const Source &src);

    void
    run(std::vector<Source> &sources)
    {
        for (Source &src : sources) {
            stripSource(src);
            checkSimDeterminism(src);
        }
    }

    int
    report() const
    {
        for (const Finding &f : findings_) {
            std::printf("%s:%d: [%s] %s\n", f.vpath.c_str(), f.line,
                        f.rule.c_str(), f.message.c_str());
        }
        return findings_.empty() ? 0 : 1;
    }

    std::size_t count() const { return findings_.size(); }

  private:
    std::set<Finding> findings_;
};

// ---------------------------------------------------------------------------
// sim-determinism
// ---------------------------------------------------------------------------

bool
inSimScope(const std::string &vpath)
{
    return vpath.rfind("src/timing/", 0) == 0 ||
           vpath.rfind("src/core/sweep.", 0) == 0 ||
           vpath.rfind("src/core/experiment.", 0) == 0 ||
           // The campaign layer expands grids and addresses chunks by
           // content hash: expansion order, shard assignment, and
           // artifact identity must be pure functions of the campaign
           // text, so the whole layer (library + driver) stays inside
           // the determinism rule.
           vpath.rfind("src/core/campaign.", 0) == 0 ||
           vpath.rfind("tools/uasim_sweep", 0) == 0;
}

void
Linter::checkSimDeterminism(const Source &src)
{
    if (!inSimScope(src.vpath))
        return;

    static const char *substrings[][2] = {
        {"std::chrono", "wall-clock (std::chrono)"},
        {"steady_clock", "wall-clock (steady_clock)"},
        {"system_clock", "wall-clock (system_clock)"},
        {"high_resolution_clock", "wall-clock (high_resolution_clock)"},
        {"random_device", "nondeterministic seed (random_device)"},
        {"mt19937", "RNG engine (mt19937)"},
        {"default_random_engine", "RNG engine (default_random_engine)"},
        {"std::unordered_",
         "unordered container (iteration order is host-dependent)"},
    };
    static const char *includes[] = {"<chrono>", "<ctime>", "<random>",
                                     "<unordered_map>",
                                     "<unordered_set>"};
    static const char *calls[] = {"time",       "clock",
                                  "rand",       "srand",
                                  "rand_r",     "drand48",
                                  "random",     "clock_gettime",
                                  "gettimeofday"};

    std::set<int> flagged;  // one finding per line keeps output stable
    auto flag = [&](std::size_t off, const std::string &what) {
        const int line = src.lineOf(off);
        if (!flagged.insert(line).second)
            return;
        addFinding(src, line, "sim-determinism",
                   what + " in a simulated path; only the *Seconds "
                          "informational stats may touch wall-clock "
                          "(suppress with // uasim-lint: "
                          "allow(sim-determinism))");
    };

    const std::string &text = src.stripped;
    for (const auto &[pat, what] : substrings) {
        std::size_t at = 0;
        const std::string p = pat;
        while ((at = text.find(p, at)) != std::string::npos) {
            // Word boundary on the left so e.g. "Xsteady_clock" or a
            // comment-stripped blank never splits oddly.
            if (at == 0 || !identChar(text[at - 1]))
                flag(at, what);
            at += p.size();
        }
    }
    for (const char *inc : includes) {
        std::size_t at = 0;
        const std::string p = inc;
        while ((at = text.find(p, at)) != std::string::npos) {
            // Only as an #include target.
            const int line = src.lineOf(at);
            const std::size_t ls = src.lineStart[line - 1];
            const std::string_view lv(text.data() + ls, at - ls);
            if (lv.find('#') != std::string_view::npos &&
                lv.find("include") != std::string_view::npos)
                flag(at, "#include " + p);
            at += p.size();
        }
    }
    for (const char *fn : calls) {
        for (std::size_t at : findIdent(text, fn)) {
            if (isCall(text, at, std::strlen(fn)))
                flag(at, std::string(fn) + "() call");
        }
    }
}

// ---------------------------------------------------------------------------
// Input assembly
// ---------------------------------------------------------------------------

/// Read @p p whole into @p out, or report why not. @return false on
/// failure.
bool
readFile(const fs::path &p, std::string &out)
{
    try {
        out = uasim::trace::readFile(p.string());
        return true;
    } catch (const uasim::trace::IoError &e) {
        std::fprintf(stderr, "uasim-lint: %s\n", e.what());
        return false;
    }
}

/// Repo-relative forward-slash path, or "" when @p f is outside root.
std::string
relativeTo(const fs::path &root, const fs::path &f)
{
    std::error_code ec;
    const fs::path rel = fs::relative(f, root, ec);
    if (ec || rel.empty())
        return "";
    const std::string s = rel.generic_string();
    if (s.rfind("..", 0) == 0)
        return "";
    return s;
}

/// Load the compile-db TUs under @p root plus the headers of the
/// linted layers. @return false on a parse/read error.
bool
loadCompdb(const fs::path &compdb, const fs::path &root,
           std::vector<Source> &sources)
{
    std::string text;
    if (!readFile(compdb, text))
        return false;
    std::set<std::string> tus;  // repo-relative paths
    try {
        const uasim::json::Value db = uasim::json::parse(text);
        for (const uasim::json::Value &e : db.asArray()) {
            const uasim::json::Object &o = e.asObject();
            const uasim::json::Value *fileV = o.find("file");
            const uasim::json::Value *dirV = o.find("directory");
            if (!fileV)
                continue;
            fs::path f = fileV->asString();
            if (f.is_relative() && dirV)
                f = fs::path(dirV->asString()) / f;
            f = f.lexically_normal();
            const std::string vpath = relativeTo(root, f);
            if (vpath.empty() || vpath.rfind("build", 0) == 0 ||
                vpath.find("/_deps/") != std::string::npos)
                continue;
            tus.insert(vpath);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "uasim-lint: %s: %s\n",
                     compdb.string().c_str(), e.what());
        return false;
    }

    // Headers have no compile-db entry; walk the linted layers.
    for (const char *dir : {"src", "tools", "bench"}) {
        const fs::path base = root / dir;
        if (!fs::is_directory(base))
            continue;
        for (auto it = fs::recursive_directory_iterator(base);
             it != fs::recursive_directory_iterator(); ++it) {
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (ext != ".hh" && ext != ".h" && ext != ".hpp")
                continue;
            const std::string vpath = relativeTo(root, it->path());
            if (!vpath.empty())
                tus.insert(vpath);
        }
    }

    for (const std::string &vpath : tus) {
        Source src;
        src.vpath = vpath;
        if (!readFile(root / vpath, src.raw))
            return false;
        sources.push_back(std::move(src));
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string compdb;
    std::string rootArg;
    Linter linter;
    std::vector<Source> sources;
    bool fixtureMode = false;

    if (argc < 2)
        return usage(/*requested=*/false);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto operand = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "uasim-lint: %s: missing operand\n", what);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help") {
            return usage(/*requested=*/true);
        } else if (arg == "--version") {
            std::string rules;
            for (const std::string &r : ruleNames()) {
                if (!rules.empty())
                    rules += ", ";
                rules += r;
            }
            std::printf("uasim-lint %s (rules: %s)\n", lintVersion,
                        rules.c_str());
            return 0;
        } else if (arg == "--list-rules") {
            for (const std::string &r : ruleNames())
                std::printf("%s\n", r.c_str());
            return 0;
        } else if (arg == "--compdb") {
            compdb = operand("--compdb");
        } else if (arg == "--root") {
            rootArg = operand("--root");
        } else if (arg == "--as") {
            const std::string vpath = operand("--as");
            const char *file = operand("--as");
            Source src;
            src.vpath = vpath;
            if (!readFile(file, src.raw))
                return 2;
            sources.push_back(std::move(src));
            fixtureMode = true;
        } else {
            std::fprintf(stderr,
                         "uasim-lint: unknown argument \"%s\"\n",
                         arg.c_str());
            return usage(/*requested=*/false);
        }
    }

    if (!fixtureMode) {
        if (compdb.empty())
            return usage(/*requested=*/false);
        const fs::path db = fs::path(compdb).lexically_normal();
        fs::path root;
        if (!rootArg.empty()) {
            root = fs::path(rootArg);
        } else {
            // build/compile_commands.json -> the repo root is the
            // build dir's parent.
            root = db.parent_path().parent_path();
        }
        std::error_code ec;
        root = fs::canonical(root, ec);
        if (ec) {
            std::fprintf(stderr, "uasim-lint: bad root %s\n",
                         rootArg.c_str());
            return 2;
        }
        if (!loadCompdb(db, root, sources))
            return 2;
    } else if (!compdb.empty()) {
        std::fprintf(stderr,
                     "uasim-lint: --compdb and --as are exclusive\n");
        return 2;
    }

    linter.run(sources);
    const int rc = linter.report();
    if (rc == 0) {
        std::printf("uasim-lint: clean (%zu files scanned)\n",
                    sources.size());
    } else {
        std::printf("uasim-lint: %zu finding(s)\n", linter.count());
    }
    return rc;
}
