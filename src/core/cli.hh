/**
 * @file
 * The one command-line parser of every bench, example and tool. A
 * binary declares its flag table; parseCommandLine() reads argv in
 * one pass and exits 2 on an unknown or repeated flag, a missing,
 * empty or "--"-prefixed operand, a malformed or out-of-range int, or
 * a positional argument beyond the named ones, printing
 * "PROG: TOKEN: PROBLEM" and the usage line that lists the binary's
 * flags.
 */

#ifndef UASIM_CORE_CLI_HH
#define UASIM_CORE_CLI_HH

#include <climits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace uasim::core {

/// One entry of a binary's flag table.
struct CliFlag {
    enum Kind { Switch, String, Int };

    CliFlag(std::string name, Kind kind = Switch, std::string operand = {},
            int min = INT_MIN)
        : name(std::move(name)), kind(kind), operand(std::move(operand)),
          min(min)
    {
    }

    std::string name;     ///< "--execs"
    Kind kind;
    std::string operand;  ///< usage placeholder ("N", "DIR")
    int min;              ///< Int: smallest accepted value
};

/// A rejected command line; what() is "TOKEN: PROBLEM".
class CliError : public std::runtime_error
{
  public:
    CliError(const std::string &token, const std::string &problem)
        : std::runtime_error(token + ": " + problem),
          tokenSize_(token.size())
    {
    }
    std::string token() const { return std::string(what(), tokenSize_); }
    std::string problem() const { return what() + tokenSize_ + 2; }

  private:
    std::size_t tokenSize_;  // keeps the exception nothrow-copyable
};

/// The parsed command line of one binary.
struct CliArgs {
    std::string prog;
    std::vector<CliFlag> flags;
    std::vector<std::string> positionalNames;
    /// Given flags -> operand ("" for a switch).
    std::map<std::string, std::string, std::less<>> values;
    std::vector<std::string> positional;

    /// True when flag @p name was given.
    bool has(std::string_view name) const;

    /// Operand of String flag @p name, or @p def when absent.
    std::string text(std::string_view name, std::string def = {}) const;

    /// Operand of Int flag @p name, or @p def when absent.
    int number(std::string_view name, int def) const;

    /// "usage: PROG [--flag OPERAND]... POSITIONAL...".
    std::string usage() const;

    /// Report @p problem with @p token in the parser's format and exit
    /// 2: for checks a flag table cannot express (a model name, a QP).
    [[noreturn]] void fail(const std::string &token,
                           const std::string &problem) const;
};

/// A whole decimal int (optional '-', digits only, no wrap), or nullopt.
std::optional<int> parseIntOperand(std::string_view text);

/**
 * Parse @p args (argv without argv[0]) against @p flags, accepting at
 * most @p positionalNames.size() positional arguments. Throws CliError
 * on the first rejected token.
 */
CliArgs parseArgs(std::string prog, std::vector<CliFlag> flags,
                  std::vector<std::string> positionalNames,
                  const std::vector<std::string> &args);

/// parseArgs over argv, named by argv[0]'s basename; a rejected token
/// exits 2 like CliArgs::fail.
CliArgs parseCommandLine(int argc, char **argv, std::vector<CliFlag> flags,
                         std::vector<std::string> positionalNames = {});

} // namespace uasim::core

#endif // UASIM_CORE_CLI_HH
