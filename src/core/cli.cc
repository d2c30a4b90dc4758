#include "core/cli.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace uasim::core {

std::optional<int>
parseIntOperand(std::string_view text)
{
    int v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

CliArgs
parseArgs(std::string prog, std::vector<CliFlag> flags,
          std::vector<std::string> positionalNames,
          const std::vector<std::string> &args)
{
    CliArgs out{std::move(prog), std::move(flags),
                std::move(positionalNames), {}, {}};
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &tok = args[i];
        if (!tok.starts_with('-')) {
            if (out.positional.size() == out.positionalNames.size())
                throw CliError(tok, "unexpected argument");
            out.positional.push_back(tok);
            continue;
        }
        const auto flag =
            std::find_if(out.flags.begin(), out.flags.end(),
                         [&](const CliFlag &f) { return f.name == tok; });
        if (flag == out.flags.end())
            throw CliError(tok, "unknown flag");
        if (out.values.count(tok))
            throw CliError(tok, "repeated flag");
        std::string &value = out.values[tok];
        if (flag->kind == CliFlag::Switch)
            continue;
        if (i + 1 == args.size())
            throw CliError(tok, "missing " + flag->operand + " operand");
        value = args[++i];
        if (value.empty())
            throw CliError(tok, "empty " + flag->operand + " operand");
        // "--json --quick" is a forgotten operand, not a directory
        // named "--quick".
        if (value.starts_with("--"))
            throw CliError(tok, "missing " + flag->operand +
                                    " operand (got flag \"" + value + "\")");
        if (flag->kind == CliFlag::Int) {
            const std::optional<int> v = parseIntOperand(value);
            if (!v)
                throw CliError(tok, "invalid number \"" + value + "\"");
            if (*v < flag->min)
                throw CliError(tok, value + " out of range (minimum " +
                                        std::to_string(flag->min) + ")");
        }
    }
    return out;
}

CliArgs
parseCommandLine(int argc, char **argv, std::vector<CliFlag> flags,
                 std::vector<std::string> positionalNames)
{
    const std::string prog =
        std::filesystem::path(argc > 0 ? argv[0] : "uasim")
            .filename()
            .string();
    const std::vector<std::string> args(argv + std::min(argc, 1),
                                        argv + argc);
    try {
        return parseArgs(prog, flags, positionalNames, args);
    } catch (const CliError &e) {
        parseArgs(prog, flags, positionalNames, {})
            .fail(e.token(), e.problem());
    }
}

bool
CliArgs::has(std::string_view name) const
{
    return values.find(name) != values.end();
}

std::string
CliArgs::text(std::string_view name, std::string def) const
{
    const auto it = values.find(name);
    return it == values.end() ? def : it->second;
}

int
CliArgs::number(std::string_view name, int def) const
{
    return has(name) ? *parseIntOperand(text(name)) : def;
}

std::string
CliArgs::usage() const
{
    std::string out = "usage: " + prog;
    for (const CliFlag &f : flags)
        out += " [" + f.name +
               (f.kind == CliFlag::Switch ? "" : " " + f.operand) + "]";
    for (const std::string &p : positionalNames)
        out += " " + p;
    return out;
}

void
CliArgs::fail(const std::string &token, const std::string &problem) const
{
    std::fprintf(stderr, "%s: %s: %s\n%s\n", prog.c_str(), token.c_str(),
                 problem.c_str(), usage().c_str());
    std::exit(2);
}

} // namespace uasim::core
