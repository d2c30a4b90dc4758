/**
 * @file
 * Campaign-file parsing, deterministic grid expansion, content-hash
 * identity, resumable shard execution, and shard-artifact merging.
 * See campaign.hh for the format and the execution model.
 *
 * Everything here is deliberately wall-clock-, randomness-, and
 * iteration-order-free (std::map/std::set only): expansion order,
 * chunk addressing, and merged artifacts are pure functions of the
 * campaign text, which is what the sim-determinism lint rule enforces
 * for this file.
 */

#include "core/campaign.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "timing/model.hh"
#include "trace/trace_io.hh"

namespace uasim::core {

namespace {

// ---------------------------------------------------------------------------
// small text helpers
// ---------------------------------------------------------------------------

std::string
trimmed(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// [values] names and [campaign] name: identifier, '-' allowed inside.
bool
isCampaignIdent(const std::string &s)
{
    if (s.empty() || !isIdentStart(s[0]))
        return false;
    for (char c : s)
        if (!isIdentChar(c) && c != '-')
            return false;
    return true;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t at = 0;
    while (at <= s.size()) {
        std::size_t comma = s.find(',', at);
        if (comma == std::string::npos)
            comma = s.size();
        out.push_back(trimmed(std::string_view(s).substr(at, comma - at)));
        at = comma + 1;
    }
    return out;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
}

// ---------------------------------------------------------------------------
// expression evaluator
// ---------------------------------------------------------------------------

struct ExprParser {
    std::string_view text;
    std::size_t pos = 0;
    const std::map<std::string, long long> &values;

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw CampaignError("bad expression '" + std::string(text) +
                            "': " + msg);
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    long long
    parseFactor()
    {
        skipWs();
        if (pos >= text.size())
            fail("expected a value");
        char c = text[pos];
        if (c == '-') {
            ++pos;
            return -parseFactor();
        }
        if (c == '(') {
            ++pos;
            long long v = parseExpr();
            if (!eat(')'))
                fail("missing ')'");
            return v;
        }
        if (c == '$') {
            ++pos;
            if (!eat('('))
                fail("expected '(' after '$'");
            skipWs();
            std::size_t b = pos;
            while (pos < text.size() &&
                   (isIdentChar(text[pos]) || text[pos] == '-'))
                ++pos;
            if (pos == b)
                fail("empty $() reference");
            std::string name(text.substr(b, pos - b));
            if (!eat(')'))
                fail("missing ')' after $(" + name);
            auto it = values.find(name);
            if (it == values.end())
                fail("undefined value '" + name + "'");
            return it->second;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t b = pos;
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
            errno = 0;
            long long v =
                std::strtoll(std::string(text.substr(b, pos - b)).c_str(),
                             nullptr, 10);
            if (errno != 0)
                fail("integer literal out of range");
            return v;
        }
        fail(std::string("unexpected character '") + c + "'");
    }

    long long
    parseTerm()
    {
        long long v = parseFactor();
        for (;;) {
            skipWs();
            if (pos >= text.size())
                return v;
            char op = text[pos];
            if (op != '*' && op != '/')
                return v;
            ++pos;
            long long rhs = parseFactor();
            if (op == '*') {
                v *= rhs;
            } else {
                if (rhs == 0)
                    fail("division by zero");
                v /= rhs;
            }
        }
    }

    long long
    parseExpr()
    {
        long long v = parseTerm();
        for (;;) {
            skipWs();
            if (pos >= text.size())
                return v;
            char op = text[pos];
            if (op != '+' && op != '-')
                return v;
            ++pos;
            long long rhs = parseTerm();
            v = op == '+' ? v + rhs : v - rhs;
        }
    }
};

// ---------------------------------------------------------------------------
// CoreConfig field table
// ---------------------------------------------------------------------------

struct CoreField {
    const char *name;
    void (*set)(timing::CoreConfig &, long long);
};

/// Sorted by name; campaignCoreFields() and the docs mirror this list.
const CoreField coreFieldTable[] = {
    {"branchQ", [](timing::CoreConfig &c, long long v) { c.branchQ = int(v); }},
    {"bpredLog2Entries",
     [](timing::CoreConfig &c, long long v) { c.bpredLog2Entries = int(v); }},
    {"dReadPorts",
     [](timing::CoreConfig &c, long long v) { c.dReadPorts = int(v); }},
    {"dWritePorts",
     [](timing::CoreConfig &c, long long v) { c.dWritePorts = int(v); }},
    {"fetchWidth",
     [](timing::CoreConfig &c, long long v) { c.fetchWidth = int(v); }},
    {"fprPhys", [](timing::CoreConfig &c, long long v) { c.fprPhys = int(v); }},
    {"gprPhys", [](timing::CoreConfig &c, long long v) { c.gprPhys = int(v); }},
    {"ibuffer", [](timing::CoreConfig &c, long long v) { c.ibuffer = int(v); }},
    {"inflight",
     [](timing::CoreConfig &c, long long v) { c.inflight = int(v); }},
    {"inorderLookahead",
     [](timing::CoreConfig &c, long long v) { c.inorderLookahead = int(v); }},
    {"issueQ", [](timing::CoreConfig &c, long long v) { c.issueQ = int(v); }},
    {"issueWidth",
     [](timing::CoreConfig &c, long long v) { c.issueWidth = int(v); }},
    {"lat.branchResolve",
     [](timing::CoreConfig &c, long long v) { c.lat.branchResolve = int(v); }},
    {"lat.fpAlu",
     [](timing::CoreConfig &c, long long v) { c.lat.fpAlu = int(v); }},
    {"lat.intAlu",
     [](timing::CoreConfig &c, long long v) { c.lat.intAlu = int(v); }},
    {"lat.intMul",
     [](timing::CoreConfig &c, long long v) { c.lat.intMul = int(v); }},
    {"lat.load",
     [](timing::CoreConfig &c, long long v) { c.lat.load = int(v); }},
    {"lat.mispredictPenalty",
     [](timing::CoreConfig &c, long long v) {
         c.lat.mispredictPenalty = int(v);
     }},
    {"lat.unalignedLoadExtra",
     [](timing::CoreConfig &c, long long v) {
         c.lat.unalignedLoadExtra = int(v);
     }},
    {"lat.unalignedStoreExtra",
     [](timing::CoreConfig &c, long long v) {
         c.lat.unalignedStoreExtra = int(v);
     }},
    {"lat.vecComplex",
     [](timing::CoreConfig &c, long long v) { c.lat.vecComplex = int(v); }},
    {"lat.vecPerm",
     [](timing::CoreConfig &c, long long v) { c.lat.vecPerm = int(v); }},
    {"lat.vecSimple",
     [](timing::CoreConfig &c, long long v) { c.lat.vecSimple = int(v); }},
    {"mem.l2Latency",
     [](timing::CoreConfig &c, long long v) { c.mem.l2Latency = int(v); }},
    {"mem.memBWBytesPerCycle",
     [](timing::CoreConfig &c, long long v) {
         c.mem.memBWBytesPerCycle = int(v);
     }},
    {"mem.memLatency",
     [](timing::CoreConfig &c, long long v) { c.mem.memLatency = int(v); }},
    {"mem.parallelBanks",
     [](timing::CoreConfig &c, long long v) { c.mem.parallelBanks = v != 0; }},
    {"memReplayPenalty",
     [](timing::CoreConfig &c, long long v) { c.memReplayPenalty = int(v); }},
    {"missMax", [](timing::CoreConfig &c, long long v) { c.missMax = int(v); }},
    {"retireWidth",
     [](timing::CoreConfig &c, long long v) { c.retireWidth = int(v); }},
    {"storeQ", [](timing::CoreConfig &c, long long v) { c.storeQ = int(v); }},
    {"storeSetLog2",
     [](timing::CoreConfig &c, long long v) { c.storeSetLog2 = int(v); }},
    {"units.br", [](timing::CoreConfig &c, long long v) { c.units.br = int(v); }},
    {"units.fp", [](timing::CoreConfig &c, long long v) { c.units.fp = int(v); }},
    {"units.fx", [](timing::CoreConfig &c, long long v) { c.units.fx = int(v); }},
    {"units.ls", [](timing::CoreConfig &c, long long v) { c.units.ls = int(v); }},
    {"units.vcmplx",
     [](timing::CoreConfig &c, long long v) { c.units.vcmplx = int(v); }},
    {"units.vi", [](timing::CoreConfig &c, long long v) { c.units.vi = int(v); }},
    {"units.vperm",
     [](timing::CoreConfig &c, long long v) { c.units.vperm = int(v); }},
};

// ---------------------------------------------------------------------------
// parse scaffolding
// ---------------------------------------------------------------------------

struct Entry {
    int line = 0;
    std::string key;
    std::string value;
};

[[noreturn]] void
parseFail(int line, const std::string &msg)
{
    throw CampaignError("campaign line " + std::to_string(line) + ": " + msg);
}

const std::vector<KernelSpec> &
kernelGrid()
{
    static const std::vector<KernelSpec> grid = paperKernelGrid();
    return grid;
}

bool
lookupKernel(const std::string &name, KernelSpec &out)
{
    for (const KernelSpec &s : kernelGrid()) {
        if (s.name() == name) {
            out = s;
            return true;
        }
    }
    return false;
}

bool
lookupVariant(const std::string &name, h264::Variant &out)
{
    static const h264::Variant all[] = {h264::Variant::Scalar,
                                        h264::Variant::Altivec,
                                        h264::Variant::Unaligned};
    for (h264::Variant v : all) {
        if (h264::variantName(v) == name) {
            out = v;
            return true;
        }
    }
    return false;
}

bool
lookupPreset(const std::string &name, timing::CoreConfig &out)
{
    for (int i = 0; i < 3; ++i) {
        if (name == timing::CoreConfig::presetNames[i]) {
            out = timing::CoreConfig::preset(i);
            return true;
        }
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------------
// public expression / field-table API
// ---------------------------------------------------------------------------

long long
evalCampaignExpr(std::string_view expr,
                 const std::map<std::string, long long> &values)
{
    ExprParser p{expr, 0, values};
    p.skipWs();
    if (p.pos == expr.size())
        p.fail("empty expression");
    long long v = p.parseExpr();
    p.skipWs();
    if (p.pos != expr.size())
        p.fail("trailing garbage at '" +
               std::string(expr.substr(p.pos)) + "'");
    return v;
}

const std::vector<std::string> &
campaignCoreFields()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const CoreField &f : coreFieldTable)
            out.push_back(f.name);
        std::sort(out.begin(), out.end());
        return out;
    }();
    return names;
}

bool
setCampaignCoreField(timing::CoreConfig &cfg, const std::string &field,
                     long long value)
{
    for (const CoreField &f : coreFieldTable) {
        if (field == f.name) {
            f.set(cfg, value);
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------------
// Campaign::parse
// ---------------------------------------------------------------------------

Campaign
Campaign::parse(std::string_view text)
{
    // Pass 1: split into sections (any file order), reject unknown or
    // duplicate sections and junk lines.
    static const char *const sectionNames[] = {"campaign", "values",
                                               "workload", "core", "axes"};
    std::map<std::string, std::vector<Entry>> sections;
    std::string current;
    int lineNo = 0;
    std::size_t at = 0;
    while (at <= text.size()) {
        std::size_t eol = text.find('\n', at);
        if (eol == std::string_view::npos)
            eol = text.size();
        std::string line(text.substr(at, eol - at));
        at = eol + 1;
        ++lineNo;
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trimmed(line);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']')
                parseFail(lineNo, "malformed section header '" + line + "'");
            std::string name = trimmed(
                std::string_view(line).substr(1, line.size() - 2));
            bool known = false;
            for (const char *s : sectionNames)
                known = known || name == s;
            if (!known)
                parseFail(lineNo, "unknown section [" + name + "]");
            if (sections.count(name))
                parseFail(lineNo, "duplicate section [" + name + "]");
            sections[name];  // mark present even if empty
            current = name;
            continue;
        }
        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            parseFail(lineNo, "expected 'key = value', got '" + line + "'");
        if (current.empty())
            parseFail(lineNo, "entry before any [section]");
        Entry e;
        e.line = lineNo;
        e.key = trimmed(std::string_view(line).substr(0, eq));
        e.value = trimmed(std::string_view(line).substr(eq + 1));
        if (e.key.empty())
            parseFail(lineNo, "empty key");
        if (e.value.empty())
            parseFail(lineNo, "empty value for '" + e.key + "'");
        sections[current].push_back(std::move(e));
    }

    Campaign c;
    std::map<std::string, long long> values;

    // [campaign]
    if (!sections.count("campaign"))
        throw CampaignError("campaign: missing [campaign] section");
    {
        std::set<std::string> seen;
        for (const Entry &e : sections["campaign"]) {
            if (!seen.insert(e.key).second)
                parseFail(e.line, "duplicate key '" + e.key + "'");
            if (e.key == "name") {
                if (!isCampaignIdent(e.value))
                    parseFail(e.line, "invalid campaign name '" + e.value +
                                          "' (want [A-Za-z_][A-Za-z0-9_-]*)");
                c.name_ = e.value;
            } else if (e.key == "execs") {
                long long v = evalCampaignExpr(e.value, values);
                if (v < 1 || v > 1000000000)
                    parseFail(e.line, "execs out of range: " +
                                          std::to_string(v));
                c.execs_ = int(v);
            } else if (e.key == "seed") {
                long long v = evalCampaignExpr(e.value, values);
                if (v < 0)
                    parseFail(e.line, "seed must be non-negative");
                c.seed_ = std::uint64_t(v);
            } else {
                parseFail(e.line, "unknown [campaign] key '" + e.key + "'");
            }
        }
        if (c.name_.empty())
            throw CampaignError("campaign: [campaign] requires 'name'");
        if (c.execs_ == 0)
            throw CampaignError("campaign '" + c.name_ +
                                "': [campaign] requires 'execs'");
    }

    // [values] - derived parameters; each may reference earlier ones.
    if (sections.count("values")) {
        for (const Entry &e : sections["values"]) {
            if (!isCampaignIdent(e.key))
                parseFail(e.line, "invalid value name '" + e.key + "'");
            if (values.count(e.key))
                parseFail(e.line, "duplicate value '" + e.key + "'");
            try {
                values[e.key] = evalCampaignExpr(e.value, values);
            } catch (const CampaignError &err) {
                parseFail(e.line, err.what());
            }
        }
    }

    // [workload]
    if (!sections.count("workload"))
        throw CampaignError("campaign '" + c.name_ +
                            "': missing [workload] section");
    {
        std::set<std::string> seen;
        for (const Entry &e : sections["workload"]) {
            if (!seen.insert(e.key).second)
                parseFail(e.line, "duplicate key '" + e.key + "'");
            if (e.key == "kernels") {
                if (e.value == "paper") {
                    c.kernels_ = kernelGrid();
                    continue;
                }
                std::set<std::string> dup;
                for (const std::string &k : splitList(e.value)) {
                    KernelSpec spec;
                    if (!lookupKernel(k, spec))
                        parseFail(e.line, "unknown kernel '" + k + "'");
                    if (!dup.insert(k).second)
                        parseFail(e.line, "duplicate kernel '" + k + "'");
                    c.kernels_.push_back(spec);
                }
            } else if (e.key == "variants") {
                std::set<std::string> dup;
                for (const std::string &v : splitList(e.value)) {
                    h264::Variant var;
                    if (!lookupVariant(v, var))
                        parseFail(e.line, "unknown variant '" + v + "'");
                    if (!dup.insert(v).second)
                        parseFail(e.line, "duplicate variant '" + v + "'");
                    c.variants_.push_back(var);
                }
            } else {
                parseFail(e.line, "unknown [workload] key '" + e.key + "'");
            }
        }
        if (c.kernels_.empty())
            throw CampaignError("campaign '" + c.name_ +
                                "': [workload] requires 'kernels'");
        if (c.variants_.empty())
            throw CampaignError("campaign '" + c.name_ +
                                "': [workload] requires 'variants'");
    }

    // [core]
    std::set<std::string> fixedFields;
    if (sections.count("core")) {
        std::set<std::string> seen;
        for (const Entry &e : sections["core"]) {
            if (!seen.insert(e.key).second)
                parseFail(e.line, "duplicate key '" + e.key + "'");
            if (e.key == "base") {
                timing::CoreConfig probe;
                if (!lookupPreset(e.value, probe))
                    parseFail(e.line, "unknown base preset '" + e.value +
                                          "' (want 2w, 4w, or 8w)");
                c.base_ = e.value;
            } else if (e.key == "model") {
                if (!timing::isTimingModel(e.value))
                    parseFail(e.line,
                              "unknown timing model '" + e.value + "'");
                c.fixedModel_ = e.value;
            } else {
                timing::CoreConfig probe;
                if (!setCampaignCoreField(probe, e.key, 0))
                    parseFail(e.line,
                              "unknown core field '" + e.key + "'");
                long long v;
                try {
                    v = evalCampaignExpr(e.value, values);
                } catch (const CampaignError &err) {
                    parseFail(e.line, err.what());
                }
                c.overrides_.emplace_back(e.key, v);
                fixedFields.insert(e.key);
            }
        }
    }

    // [axes]
    if (sections.count("axes")) {
        std::set<std::string> seen;
        for (const Entry &e : sections["axes"]) {
            if (!seen.insert(e.key).second)
                parseFail(e.line, "duplicate axis '" + e.key + "'");
            CampaignAxis axis;
            axis.field = e.key;
            if (e.key == "model") {
                if (!c.fixedModel_.empty())
                    parseFail(e.line,
                              "'model' is both a [core] override and an axis");
                std::set<std::string> dup;
                for (const std::string &m : splitList(e.value)) {
                    if (!timing::isTimingModel(m))
                        parseFail(e.line,
                                  "unknown timing model '" + m + "'");
                    if (!dup.insert(m).second)
                        parseFail(e.line,
                                  "duplicate axis value '" + m + "'");
                    axis.names.push_back(m);
                }
            } else {
                timing::CoreConfig probe;
                if (!setCampaignCoreField(probe, e.key, 0))
                    parseFail(e.line, "unknown core field '" + e.key + "'");
                if (fixedFields.count(e.key))
                    parseFail(e.line, "'" + e.key +
                                          "' is both a [core] override "
                                          "and an axis");
                std::set<long long> dup;
                for (const std::string &t : splitList(e.value)) {
                    long long v;
                    try {
                        v = evalCampaignExpr(t, values);
                    } catch (const CampaignError &err) {
                        parseFail(e.line, err.what());
                    }
                    if (!dup.insert(v).second)
                        parseFail(e.line, "duplicate axis value " +
                                              std::to_string(v));
                    axis.values.push_back(v);
                }
            }
            if (axis.values.empty() && axis.names.empty())
                parseFail(e.line, "axis '" + e.key + "' has no values");
            c.axes_.push_back(std::move(axis));
        }
    }

    // Expand and validate the config grid.
    timing::CoreConfig base;
    lookupPreset(c.base_, base);
    if (!c.fixedModel_.empty())
        base.model = c.fixedModel_;
    for (const auto &[field, value] : c.overrides_)
        setCampaignCoreField(base, field, value);

    long long total = 1;
    for (const CampaignAxis &a : c.axes_) {
        total *= static_cast<long long>(a.values.size() + a.names.size());
        if (total > 1000000)
            throw CampaignError("campaign '" + c.name_ +
                                "': axes expand to more than 1000000 "
                                "configurations");
    }
    for (long long i = 0; i < total; ++i) {
        timing::CoreConfig cfg = base;
        std::string label;
        long long rem = i;
        // First axis slowest: the declaration-order odometer.
        long long stride = total;
        for (const CampaignAxis &a : c.axes_) {
            long long n =
                static_cast<long long>(a.values.size() + a.names.size());
            stride /= n;
            long long pick = (rem / stride) % n;
            if (!label.empty())
                label += ',';
            if (!a.names.empty()) {
                cfg.model = a.names[std::size_t(pick)];
                label += a.field + "=" + a.names[std::size_t(pick)];
            } else {
                long long v = a.values[std::size_t(pick)];
                setCampaignCoreField(cfg, a.field, v);
                label += a.field + "=" + std::to_string(v);
            }
        }
        if (label.empty())
            label = c.base_;  // axis-free campaign: the base core alone
        cfg.name = label;
        try {
            cfg.validate();
        } catch (const std::invalid_argument &err) {
            throw CampaignError("campaign '" + c.name_ +
                                "': invalid configuration '" + label +
                                "': " + err.what());
        }
        c.configs_.push_back(ConfigJob{label, cfg});
    }
    return c;
}

Campaign
Campaign::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CampaignError("cannot open campaign file: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad())
        throw CampaignError("error reading campaign file: " + path);
    return parse(ss.str());
}

// ---------------------------------------------------------------------------
// canonical form + identity
// ---------------------------------------------------------------------------

std::string
Campaign::canonical() const
{
    std::string out;
    out += "[campaign]\n";
    out += "name = " + name_ + "\n";
    out += "execs = " + std::to_string(execs_) + "\n";
    out += "seed = " + std::to_string(seed_) + "\n";
    out += "\n[workload]\n";
    out += "kernels = ";
    for (std::size_t i = 0; i < kernels_.size(); ++i)
        out += (i ? ", " : "") + kernels_[i].name();
    out += "\nvariants = ";
    for (std::size_t i = 0; i < variants_.size(); ++i) {
        if (i)
            out += ", ";
        out += std::string(h264::variantName(variants_[i]));
    }
    out += "\n\n[core]\n";
    out += "base = " + base_ + "\n";
    if (!fixedModel_.empty())
        out += "model = " + fixedModel_ + "\n";
    for (const auto &[field, value] : overrides_)
        out += field + " = " + std::to_string(value) + "\n";
    if (!axes_.empty()) {
        out += "\n[axes]\n";
        for (const CampaignAxis &a : axes_) {
            out += a.field + " = ";
            if (!a.names.empty()) {
                for (std::size_t i = 0; i < a.names.size(); ++i)
                    out += (i ? ", " : "") + a.names[i];
            } else {
                for (std::size_t i = 0; i < a.values.size(); ++i) {
                    if (i)
                        out += ", ";
                    out += std::to_string(a.values[i]);
                }
            }
            out += "\n";
        }
    }
    return out;
}

std::uint64_t
Campaign::contentHash() const
{
    const std::string text = canonical();
    return trace::wire::fnv1a(text.data(), text.size());
}

std::string
Campaign::contentHashHex() const
{
    return hex16(contentHash());
}

std::string
Campaign::id() const
{
    return name_ + "-" + contentHashHex();
}

// ---------------------------------------------------------------------------
// grid / chunk / shard model
// ---------------------------------------------------------------------------

std::string
Campaign::chunkTraceKey(int chunk) const
{
    const int v = int(variants_.size());
    const KernelSpec &spec = kernels_[std::size_t(chunk / v)];
    return kernelTraceJob(spec, variants_[std::size_t(chunk % v)], execs_,
                          seed_)
        .key;
}

std::uint64_t
Campaign::chunkHash(int chunk) const
{
    std::string tail = "/chunk/" + std::to_string(chunk) + "/" +
                       chunkTraceKey(chunk);
    return trace::wire::fnv1a(tail.data(), tail.size(), contentHash());
}

std::string
Campaign::chunkFileName(int chunk) const
{
    return "chunk-" + hex16(chunkHash(chunk)) + ".json";
}

std::vector<int>
Campaign::shardChunks(int chunkCount, int shard, int shardCount)
{
    if (shardCount < 1)
        throw CampaignError("shard count must be >= 1");
    if (shard < 0 || shard >= shardCount)
        throw CampaignError("shard index " + std::to_string(shard) +
                            " out of range for " +
                            std::to_string(shardCount) + " shard(s)");
    std::vector<int> out;
    for (int j = shard; j < chunkCount; j += shardCount)
        out.push_back(j);
    return out;
}

SweepPlan
Campaign::buildPlan(const std::vector<int> &chunks) const
{
    SweepPlan plan;
    for (const ConfigJob &c : configs_)
        plan.addConfig(c.label, c.cfg);
    const int v = int(variants_.size());
    for (int j : chunks) {
        const KernelSpec &spec = kernels_[std::size_t(j / v)];
        int ti = plan.addTrace(
            kernelTraceJob(spec, variants_[std::size_t(j % v)], execs_,
                           seed_));
        for (int c = 0; c < configCount(); ++c)
            plan.addCell(ti, c);
    }
    return plan;
}

// ---------------------------------------------------------------------------
// shard execution + resume
// ---------------------------------------------------------------------------

namespace {

using Params = std::vector<std::pair<std::string, json::Value>>;

bool
sameParams(const Params &a, const Params &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].first != b[i].first ||
            a[i].second.dump(0) != b[i].second.dump(0))
            return false;
    }
    return true;
}

/// The identity params every campaign artifact carries, in order.
void
addCommonParams(const Campaign &c, BenchResult &r)
{
    r.addParam("campaign", json::Value(c.name()));
    r.addParam("campaign_hash", json::Value(c.contentHashHex()));
    r.addParam("execs", json::Value(c.execs()));
    r.addParam("seed",
               json::Value(static_cast<unsigned long long>(c.seed())));
    r.addParam("chunk_count", json::Value(c.chunkCount()));
    r.addParam("config_count", json::Value(c.configCount()));
}

Params
expectedChunkParams(const Campaign &c, int chunk)
{
    BenchResult tmp;
    addCommonParams(c, tmp);
    tmp.addParam("chunk", json::Value(chunk));
    tmp.addParam("chunk_hash", json::Value(hex16(c.chunkHash(chunk))));
    return tmp.params;
}

/**
 * A published chunk artifact is resumable only if it provably is this
 * chunk of this campaign: identity params, cell layout, and the
 * deterministic stats subset must all match what a fresh execution
 * would publish. Anything else - partial write, stale campaign,
 * hand-edited file - re-executes the chunk instead of failing.
 */
bool
chunkArtifactValid(const Campaign &c, int chunk, const BenchResult &r)
{
    if (r.bench != c.name() || !r.metrics.empty() || !r.hasStats)
        return false;
    if (!sameParams(r.params, expectedChunkParams(c, chunk)))
        return false;
    if (int(r.cells.size()) != c.configCount())
        return false;
    const std::string traceKey = c.chunkTraceKey(chunk);
    std::uint64_t instrs = 0;
    for (int i = 0; i < c.configCount(); ++i) {
        const ResultCell &cell = r.cells[std::size_t(i)];
        if (cell.trace != traceKey ||
            cell.config != c.configs()[std::size_t(i)].label)
            return false;
        instrs += cell.traceInstrs;
    }
    return r.stats.cellsRun == std::uint64_t(c.configCount()) &&
           r.stats.instrsReplayed == instrs;
}

} // namespace

CampaignRunOutcome
runCampaignShard(const Campaign &campaign, const CampaignRunOptions &opt)
{
    namespace fs = std::filesystem;
    if (opt.jsonDir.empty())
        throw CampaignError("campaign run requires an artifact directory");
    const std::vector<int> chunks =
        opt.sharded
            ? Campaign::shardChunks(campaign.chunkCount(), opt.shard,
                                    opt.shardCount)
            : Campaign::shardChunks(campaign.chunkCount(), 0, 1);

    fs::create_directories(fs::path(opt.jsonDir));
    // Chunk artifacts live under a campaign-id subdirectory, outside
    // the BENCH_*.json namespace uasim-report directory scans use.
    const fs::path chunkDir =
        fs::path(opt.jsonDir) / (campaign.id() + ".chunks");
    fs::create_directories(chunkDir);

    CampaignRunOutcome out;
    out.chunkDir = chunkDir.string();

    const int C = campaign.configCount();
    std::vector<BenchResult> chunkResults(chunks.size());
    std::vector<std::size_t> toRun;
    for (std::size_t k = 0; k < chunks.size(); ++k) {
        const int j = chunks[k];
        const std::string file = campaign.chunkFileName(j);
        bool published = false;
        const fs::path path = chunkDir / file;
        if (fs::exists(path)) {
            try {
                BenchResult r = loadResultFile(path.string());
                if (chunkArtifactValid(campaign, j, r)) {
                    chunkResults[k] = std::move(r);
                    published = true;
                }
            } catch (const std::exception &) {
                published = false;  // unreadable/corrupt: re-execute
            }
        }
        out.chunks.push_back(CampaignChunkStatus{j, file, published});
        if (!published)
            toRun.push_back(k);
    }

    SweepStats runStats{};
    bool ran = false;
    if (!toRun.empty()) {
        std::vector<int> runChunks;
        for (std::size_t k : toRun)
            runChunks.push_back(chunks[k]);
        SweepPlan plan = campaign.buildPlan(runChunks);
        SweepRunner runner(opt.threads);
        if (!opt.traceCache.empty())
            runner.attachStore(opt.traceCache);
        const std::vector<SweepCellResult> results = runner.run(plan);
        runStats = runner.stats();
        ran = true;
        for (std::size_t r = 0; r < toRun.size(); ++r) {
            const std::size_t k = toRun[r];
            const int j = chunks[k];
            BenchResult cr;
            cr.bench = campaign.name();
            for (auto &p : expectedChunkParams(campaign, j))
                cr.addParam(p.first, p.second);
            SweepStats s{};
            for (int i = 0; i < C; ++i) {
                const SweepCellResult &cell = results[r * std::size_t(C) +
                                                      std::size_t(i)];
                cr.cells.push_back(ResultCell{cell.traceKey,
                                              cell.configLabel,
                                              cell.traceInstrs, cell.sim,
                                              cell.mix});
                s.instrsReplayed += cell.traceInstrs;
            }
            s.cellsRun = std::uint64_t(C);
            cr.stats = s;
            cr.hasStats = true;
            cr.hasInformational = false;
            // Baseline form (no informational block): re-publishing the
            // same chunk always writes the same bytes.
            saveResultFile(cr, (chunkDir / campaign.chunkFileName(j)).string(),
                           false);
            chunkResults[k] = std::move(cr);
        }
    }

    BenchResult art;
    art.bench = campaign.name();
    addCommonParams(campaign, art);
    if (opt.sharded) {
        art.addParam("shard", json::Value(opt.shard));
        art.addParam("shard_count", json::Value(opt.shardCount));
    }
    SweepStats total{};
    for (const BenchResult &cr : chunkResults) {
        for (const ResultCell &cell : cr.cells)
            art.cells.push_back(cell);
        total.cellsRun += cr.stats.cellsRun;
        total.instrsReplayed += cr.stats.instrsReplayed;
    }
    if (ran) {
        // Carry the informational block of the actual pass, but keep
        // the simulated subset resume-invariant: it covers every chunk
        // of the shard, executed or skipped.
        SweepStats info = runStats;
        info.cellsRun = total.cellsRun;
        info.instrsReplayed = total.instrsReplayed;
        art.stats = info;
        art.hasInformational = true;
    } else {
        art.stats = total;
        art.hasInformational = false;
    }
    art.hasStats = true;

    std::string artName;
    if (opt.sharded) {
        artName = "BENCH_" + campaign.name() + ".shard" +
                  std::to_string(opt.shard) + "of" +
                  std::to_string(opt.shardCount) + ".json";
    } else {
        artName = "BENCH_" + campaign.name() + ".json";
    }
    const fs::path artPath = fs::path(opt.jsonDir) / artName;
    saveResultFile(art, artPath.string(), art.hasInformational);

    out.artifact = std::move(art);
    out.artifactPath = artPath.string();
    out.executed = int(toRun.size());
    out.skipped = int(chunks.size() - toRun.size());
    return out;
}

// ---------------------------------------------------------------------------
// shard-artifact merge
// ---------------------------------------------------------------------------

BenchResult
mergeShardResults(const std::vector<BenchResult> &shards)
{
    if (shards.empty())
        throw CampaignError("merge: no shard artifacts given");

    static const char *const commonNames[] = {
        "campaign", "chunk_count", "config_count", "execs", "seed"};

    // Validate each shard's shape and index it by shard number.
    std::map<int, const BenchResult *> byShard;
    int shardCount = -1;
    for (const BenchResult &r : shards) {
        auto find = [&r](const char *name) -> const json::Value * {
            for (const auto &[k, v] : r.params)
                if (k == name)
                    return &v;
            return nullptr;
        };
        const json::Value *shard = find("shard");
        const json::Value *count = find("shard_count");
        if (!shard || !count)
            throw CampaignError(
                "merge: '" + r.bench +
                "' artifact is not a campaign shard (no shard/shard_count "
                "params)");
        for (const char *name : commonNames)
            if (!find(name))
                throw CampaignError("merge: shard artifact for '" + r.bench +
                                    "' is missing param '" + name + "'");
        if (!r.metrics.empty())
            throw CampaignError(
                "merge: shard artifact carries derived metrics");
        if (!r.hasStats)
            throw CampaignError("merge: shard artifact has no stats block");
        int s = int(shard->asInt());
        int n = int(count->asInt());
        if (n < 1 || s < 0 || s >= n)
            throw CampaignError("merge: invalid shard " + std::to_string(s) +
                                "/" + std::to_string(n));
        if (shardCount == -1)
            shardCount = n;
        else if (shardCount != n)
            throw CampaignError("merge: shard_count mismatch (" +
                                std::to_string(shardCount) + " vs " +
                                std::to_string(n) + ")");
        if (!byShard.emplace(s, &r).second)
            throw CampaignError("merge: overlapping shards (shard " +
                                std::to_string(s) + " appears twice)");
    }
    for (int s = 0; s < shardCount; ++s)
        if (!byShard.count(s))
            throw CampaignError("merge: missing shard " + std::to_string(s) +
                                " of " + std::to_string(shardCount));

    // Common identity params (everything but shard/shard_count) must
    // agree bit-exactly across shards, as must the bench name.
    const BenchResult &first = *byShard.at(0);
    Params common;
    for (const auto &p : first.params)
        if (p.first != "shard" && p.first != "shard_count")
            common.push_back(p);
    for (const auto &[s, r] : byShard) {
        Params mine;
        for (const auto &p : r->params)
            if (p.first != "shard" && p.first != "shard_count")
                mine.push_back(p);
        if (r->bench != first.bench || !sameParams(mine, common))
            throw CampaignError(
                "merge: shard " + std::to_string(s) +
                " belongs to a different campaign than shard 0");
    }

    auto intParam = [&common](const char *name) -> long long {
        for (const auto &[k, v] : common)
            if (k == name)
                return v.asInt();
        return -1;
    };
    const long long chunkCount = intParam("chunk_count");
    const long long configCount = intParam("config_count");
    if (chunkCount < 1 || configCount < 1)
        throw CampaignError("merge: invalid chunk_count/config_count");

    // Per-shard cell count must cover exactly its round-robin chunks.
    for (const auto &[s, r] : byShard) {
        long long myChunks = 0;
        for (long long j = s; j < chunkCount; j += shardCount)
            ++myChunks;
        if (static_cast<long long>(r->cells.size()) !=
            myChunks * configCount)
            throw CampaignError(
                "merge: shard " + std::to_string(s) + " has " +
                std::to_string(r->cells.size()) + " cells, expected " +
                std::to_string(myChunks * configCount));
    }

    // Reassemble chunk-major: chunk j lives at rank j/N within shard
    // j%N, so merged cell order equals the unsharded run's cell order.
    BenchResult out;
    out.bench = first.bench;
    for (const auto &p : common)
        out.addParam(p.first, p.second);
    std::set<std::string> chunkTraces;
    for (long long j = 0; j < chunkCount; ++j) {
        const BenchResult &r = *byShard.at(int(j % shardCount));
        const long long rank = j / shardCount;
        const std::size_t begin = std::size_t(rank * configCount);
        const std::string &traceKey = r.cells[begin].trace;
        if (!chunkTraces.insert(traceKey).second)
            throw CampaignError("merge: overlapping cells (trace '" +
                                traceKey + "' appears in two chunks)");
        for (long long i = 0; i < configCount; ++i) {
            const ResultCell &cell = r.cells[begin + std::size_t(i)];
            if (cell.trace != traceKey)
                throw CampaignError(
                    "merge: shard " + std::to_string(int(j % shardCount)) +
                    " chunk block " + std::to_string(rank) +
                    " mixes traces ('" + traceKey + "' vs '" + cell.trace +
                    "')");
            out.cells.push_back(cell);
        }
    }

    SweepStats total{};
    for (const auto &[s, r] : byShard) {
        total.cellsRun += r->stats.cellsRun;
        total.instrsReplayed += r->stats.instrsReplayed;
    }
    out.stats = total;
    out.hasStats = true;
    out.hasInformational = false;
    return out;
}

} // namespace uasim::core
