/**
 * @file
 * Campaign-file parsing, deterministic grid expansion, content-hash
 * identity, resumable shard execution, and campaign-artifact assembly
 * from published chunks. See campaign.hh for the format and the
 * execution model.
 *
 * Everything here is deliberately wall-clock-, randomness-, and
 * iteration-order-free (std::map/std::set only): expansion order,
 * chunk addressing, and assembled artifacts are pure functions of the
 * campaign text. The build enforces it: this file is in the
 * determinism scope (core/determinism.hh).
 */

#include "core/campaign.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <utility>
#include <variant>

#include "timing/config.hh"
#include "trace/file_io.hh"
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

/// [campaign] name: [A-Za-z_][A-Za-z0-9_-]*.
bool
isCampaignIdent(const std::string &s)
{
    if (s.empty() ||
        !(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_'))
        return false;
    for (char c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-')
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

/// Parse a campaign integer: an optional '-' followed by decimal
/// digits, nothing else, within long long range.
long long
parseInt(int line, const std::string &text)
{
    long long v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc::result_out_of_range)
        parseFail(line, "integer literal '" + text + "' is out of range");
    if (ec != std::errc() || ptr != end)
        parseFail(line, "expected a decimal integer, got '" + text + "'");
    return v;
}

/// The core field table row named @p key. @throws CampaignError.
const timing::CoreConfigField &
lookupCoreField(int line, const std::string &key)
{
    for (const timing::CoreConfigField &f : timing::coreConfigFields()) {
        if (key == f.name)
            return f;
    }
    parseFail(line, "unknown core field '" + key + "'");
}

/// One value of core field @p f: a named field's value by name (stored
/// as its index), any other field's as parseInt(). Every numeric field
/// is an int, so a value outside int range is a parse error rather
/// than a silent narrowing.
long long
parseCoreValue(int line, const timing::CoreConfigField &f,
               const std::string &text)
{
    if (!f.names.empty()) {
        const auto it = std::ranges::find(f.names, text);
        if (it == f.names.end())
            parseFail(line, "unknown " + std::string(f.name) + " '" + text +
                                "'");
        return it - f.names.begin();
    }
    const long long v = parseInt(line, text);
    if (v < INT_MIN || v > INT_MAX)
        parseFail(line, "value " + std::to_string(v) + " for '" + f.name +
                            "' is out of int range");
    return v;
}

/// parseCoreValue()'s inverse: how a value of @p f is printed.
std::string
coreValueText(const timing::CoreConfigField &f, long long v)
{
    return f.names.empty() ? std::to_string(v)
                           : std::string(f.names[std::size_t(v)]);
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
// Campaign::parse
// ---------------------------------------------------------------------------

Campaign
Campaign::parse(std::string_view text)
{
    // Pass 1: split into sections (any file order), reject unknown or
    // duplicate sections, duplicate keys and junk lines.
    static const char *const sectionNames[] = {"campaign", "workload",
                                               "core", "axes"};
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
        std::vector<Entry> &entries = sections[current];
        for (const Entry &prev : entries) {
            if (prev.key == e.key)
                parseFail(lineNo, "duplicate key '" + e.key + "'");
        }
        entries.push_back(std::move(e));
    }

    Campaign c;

    // [campaign]
    if (!sections.count("campaign"))
        throw CampaignError("campaign: missing [campaign] section");
    for (const Entry &e : sections["campaign"]) {
        if (e.key == "name") {
            if (!isCampaignIdent(e.value))
                parseFail(e.line, "invalid campaign name '" + e.value +
                                      "' (want [A-Za-z_][A-Za-z0-9_-]*)");
            c.name_ = e.value;
        } else if (e.key == "execs") {
            long long v = parseInt(e.line, e.value);
            if (v < 1 || v > 1000000000)
                parseFail(e.line, "execs out of range: " + std::to_string(v));
            c.execs_ = int(v);
        } else if (e.key == "seed") {
            long long v = parseInt(e.line, e.value);
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

    // [workload]
    if (!sections.count("workload"))
        throw CampaignError("campaign '" + c.name_ +
                            "': missing [workload] section");
    for (const Entry &e : sections["workload"]) {
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

    // [core]: the base preset, then core field overrides.
    for (const Entry &e : sections["core"]) {
        if (e.key == "base") {
            timing::CoreConfig probe;
            if (!lookupPreset(e.value, probe))
                parseFail(e.line, "unknown base preset '" + e.value +
                                      "' (want 2w, 4w, or 8w)");
            c.base_ = e.value;
            continue;
        }
        const timing::CoreConfigField &f = lookupCoreField(e.line, e.key);
        c.overrides_.emplace_back(&f, parseCoreValue(e.line, f, e.value));
    }

    // [axes]
    for (const Entry &e : sections["axes"]) {
        CampaignAxis axis{&lookupCoreField(e.line, e.key), {}};
        for (const auto &o : c.overrides_) {
            if (o.first == axis.field)
                parseFail(e.line, "'" + e.key +
                                      "' is both a [core] override "
                                      "and an axis");
        }
        std::set<long long> dup;
        for (const std::string &t : splitList(e.value)) {
            const long long v = parseCoreValue(e.line, *axis.field, t);
            if (!dup.insert(v).second)
                parseFail(e.line, "duplicate axis value " +
                                      coreValueText(*axis.field, v));
            axis.values.push_back(v);
        }
        c.axes_.push_back(std::move(axis));
    }

    // Expand and validate the config grid.
    timing::CoreConfig base;
    lookupPreset(c.base_, base);
    for (const auto &[field, value] : c.overrides_)
        field->set(base, value);

    long long total = 1;
    for (const CampaignAxis &a : c.axes_) {
        total *= static_cast<long long>(a.values.size());
        if (total > 1000000)
            throw CampaignError("campaign '" + c.name_ +
                                "': axes expand to more than 1000000 "
                                "configurations");
    }
    for (long long i = 0; i < total; ++i) {
        timing::CoreConfig cfg = base;
        std::string label;
        // First axis slowest: the declaration-order odometer.
        long long stride = total;
        for (const CampaignAxis &a : c.axes_) {
            const auto n = static_cast<long long>(a.values.size());
            stride /= n;
            const long long v = a.values[std::size_t((i / stride) % n)];
            if (!label.empty())
                label += ',';
            a.field->set(cfg, v);
            label += std::string(a.field->name) + "=" +
                coreValueText(*a.field, v);
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
    // A directory opens but fails to read, so it is unreadable too,
    // not an empty campaign.
    std::string text;
    try {
        text = trace::readFile(path);
    } catch (const trace::IoError &) {
        throw CampaignError("cannot read campaign file: " + path);
    }
    return parse(text);
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
    for (const auto &[field, value] : overrides_)
        out += std::string(field->name) + " = " +
            coreValueText(*field, value) + "\n";
    if (!axes_.empty()) {
        out += "\n[axes]\n";
        for (const CampaignAxis &a : axes_) {
            out += std::string(a.field->name) + " = ";
            for (std::size_t i = 0; i < a.values.size(); ++i)
                out += (i ? ", " : "") + coreValueText(*a.field, a.values[i]);
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
// shard execution, resume and assembly
// ---------------------------------------------------------------------------

namespace {

namespace fs = std::filesystem;

using Params = std::vector<std::pair<std::string, json::Value>>;

/// Chunk param carrying the FNV-1a digest of the chunk's cells.
constexpr const char *cellsDigestParam = "cells_fnv1a";

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

/// FNV-1a over the serialized "cells" array of @p r.
json::Value
cellsDigest(const BenchResult &r)
{
    const std::string text =
        r.toJson(false).asObject().find("cells")->dump(0);
    return json::Value(hex16(trace::wire::fnv1a(text.data(), text.size())));
}

/**
 * A published chunk artifact is resumable only if it provably is this
 * chunk of this campaign: identity params, cell layout, the digest of
 * its cells and the deterministic stats subset must all match what a
 * fresh execution would publish. Anything else - partial write, stale
 * campaign, hand-edited file - re-executes the chunk instead of
 * failing.
 */
bool
chunkArtifactValid(const Campaign &c, int chunk, const BenchResult &r)
{
    if (r.bench != c.name() || !r.metrics.empty() || !r.hasStats)
        return false;
    Params expected = expectedChunkParams(c, chunk);
    expected.emplace_back(cellsDigestParam, cellsDigest(r));
    if (!sameParams(r.params, expected))
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

/// Build chunk @p chunk's artifact from its configCount() results at
/// @p cells and publish it under @p chunkDir.
BenchResult
publishChunk(const Campaign &c, int chunk, const SweepCellResult *cells,
             const fs::path &chunkDir)
{
    BenchResult cr;
    cr.bench = c.name();
    cr.params = expectedChunkParams(c, chunk);
    for (int i = 0; i < c.configCount(); ++i) {
        const SweepCellResult &cell = cells[i];
        cr.cells.push_back(ResultCell{cell.traceKey, cell.configLabel,
                                      cell.traceInstrs, cell.sim,
                                      cell.mix});
        cr.stats.instrsReplayed += cell.traceInstrs;
    }
    cr.params.emplace_back(cellsDigestParam, cellsDigest(cr));
    cr.stats.cellsRun = std::uint64_t(c.configCount());
    cr.hasStats = true;
    // Baseline form (no informational block): re-publishing the same
    // chunk always writes the same bytes.
    saveResultFile(cr, (chunkDir / c.chunkFileName(chunk)).string(),
                   false);
    return cr;
}

} // namespace

CampaignRunOutcome
runCampaignShard(const Campaign &campaign, const CampaignRunOptions &opt)
{
    if (opt.jsonDir.empty())
        throw CampaignError("campaign run requires an artifact directory");
    const std::vector<int> chunks = Campaign::shardChunks(
        campaign.chunkCount(), opt.shard, opt.shardCount);

    fs::create_directories(fs::path(opt.jsonDir));
    // Chunk artifacts live under a campaign-id subdirectory, outside
    // the BENCH_*.json namespace uasim-report directory scans use.
    const fs::path chunkDir =
        fs::path(opt.jsonDir) / (campaign.id() + ".chunks");
    fs::create_directories(chunkDir);

    CampaignRunOutcome out;
    out.chunkDir = chunkDir.string();

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
    out.executed = int(toRun.size());
    out.skipped = int(chunks.size() - toRun.size());

    SweepStats runStats{};
    if (!toRun.empty()) {
        std::vector<int> runChunks;
        for (std::size_t k : toRun)
            runChunks.push_back(chunks[k]);
        SweepRunner runner(opt.threads);
        if (!opt.traceCache.empty())
            runner.attachStore(opt.traceCache);
        // Trace t of the plan is runChunks[t], its cells t*C..t*C+C-1.
        // Each chunk publishes on its worker as soon as its group
        // completes, so a killed run keeps every finished chunk.
        const std::size_t C = std::size_t(campaign.configCount());
        runner.run(campaign.buildPlan(runChunks),
                   [&](int t, const std::vector<SweepCellResult> &results) {
                       const std::size_t k = toRun[std::size_t(t)];
                       chunkResults[k] = publishChunk(
                           campaign, chunks[k],
                           &results[std::size_t(t) * C], chunkDir);
                   });
        runStats = runner.stats();
    }

    // A shard of several publishes chunks only; the run that covers
    // every chunk assembles the campaign artifact from them.
    if (opt.shardCount > 1)
        return out;

    BenchResult art;
    art.bench = campaign.name();
    addCommonParams(campaign, art);
    for (const BenchResult &cr : chunkResults) {
        for (const ResultCell &cell : cr.cells)
            art.cells.push_back(cell);
    }
    // Carry the informational block of the actual pass (none when
    // every chunk was already published), but keep the simulated
    // subset resume-invariant: it covers every chunk, executed or
    // skipped.
    art.stats = runStats;
    for (const SweepStatsField &f : sweepStatsFields()) {
        if (!f.gating)
            continue;
        std::visit(
            [&](auto m) {
                art.stats.*m = {};
                for (const BenchResult &cr : chunkResults)
                    art.stats.*m += cr.stats.*m;
            },
            f.member);
    }
    art.hasInformational = !toRun.empty();
    art.hasStats = true;

    const fs::path artPath =
        fs::path(opt.jsonDir) / ("BENCH_" + campaign.name() + ".json");
    saveResultFile(art, artPath.string(), art.hasInformational);
    out.artifact = std::move(art);
    out.artifactPath = artPath.string();
    return out;
}

} // namespace uasim::core
