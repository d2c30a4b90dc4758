#include "core/result.hh"

#include <atomic>
#include <bit>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "trace/instr.hh"

namespace uasim::core {

namespace {

/// Keys of the artifact's informational (never gating) stats block,
/// in serialization order.
constexpr const char *informationalKey = "informational";

json::Value
mixToJson(const trace::InstrMix &mix)
{
    json::Object o;
    for (int i = 0; i < trace::numInstrClasses; ++i) {
        auto cls = static_cast<trace::InstrClass>(i);
        o.set(std::string(trace::instrClassName(cls)), mix.count(cls));
    }
    return json::Value(std::move(o));
}

const json::Value &
require(const json::Object &o, const char *key, const char *where)
{
    const json::Value *v = o.find(key);
    if (!v)
        throw SchemaError(std::string(where) + ": missing field \"" +
                          key + "\"");
    return *v;
}

std::uint64_t
requireUint(const json::Object &o, const char *key, const char *where)
{
    try {
        return require(o, key, where).asUint();
    } catch (const json::TypeError &e) {
        throw SchemaError(std::string(where) + "." + key + ": " +
                          e.what());
    }
}

double
requireDouble(const json::Object &o, const char *key, const char *where)
{
    try {
        return require(o, key, where).asDouble();
    } catch (const json::TypeError &e) {
        throw SchemaError(std::string(where) + "." + key + ": " +
                          e.what());
    }
}

std::string
requireString(const json::Object &o, const char *key, const char *where)
{
    try {
        return require(o, key, where).asString();
    } catch (const json::TypeError &e) {
        throw SchemaError(std::string(where) + "." + key + ": " +
                          e.what());
    }
}

trace::InstrMix
mixFromJson(const json::Value &v, const char *where)
{
    trace::InstrMix mix;
    const json::Object &o = v.asObject();
    for (int i = 0; i < trace::numInstrClasses; ++i) {
        auto cls = static_cast<trace::InstrClass>(i);
        mix.add(cls, requireUint(
                         o, std::string(trace::instrClassName(cls)).c_str(),
                         where));
    }
    if (o.size() != std::size_t(trace::numInstrClasses))
        throw SchemaError(std::string(where) +
                          ": unknown instruction class in mix");
    return mix;
}

constexpr SimResultField simFields[] = {
    {"cycles", &timing::SimResult::cycles},
    {"instrs", &timing::SimResult::instrs},
    {"branches", &timing::SimResult::branches},
    {"mispredicts", &timing::SimResult::mispredicts},
    {"l1dAccesses", &timing::SimResult::l1dAccesses},
    {"l1dMisses", &timing::SimResult::l1dMisses},
    {"l2Misses", &timing::SimResult::l2Misses},
    {"l1iMisses", &timing::SimResult::l1iMisses},
    {"storeForwards", &timing::SimResult::storeForwards},
    {"unalignedVecOps", &timing::SimResult::unalignedVecOps},
    {"lineCrossings", &timing::SimResult::lineCrossings},
    {"fetchStallCycles", &timing::SimResult::fetchStallCycles},
};

json::Value
simToJson(const timing::SimResult &s)
{
    json::Object o;
    o.set("core", s.core);
    for (const SimResultField &f : simResultFields())
        o.set(f.name, s.*f.member);
    return json::Value(std::move(o));
}

timing::SimResult
simFromJson(const json::Value &v, const char *where)
{
    const json::Object &o = v.asObject();
    timing::SimResult s;
    s.core = requireString(o, "core", where);
    for (const SimResultField &f : simResultFields())
        s.*f.member = requireUint(o, f.name, where);
    return s;
}

/// Bit-exact double comparison (the gating rule for metric values).
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/// Diff message collector with a cap so a wholesale change stays
/// readable.
class Lines
{
  public:
    explicit Lines(std::vector<std::string> &out) : out_(out) {}

    void
    add(std::string line)
    {
        ++total_;
        if (out_.size() < cap_)
            out_.push_back(std::move(line));
        else if (out_.size() == cap_)
            out_.push_back("... (further differences elided)");
    }

    bool any() const { return total_ > 0; }

  private:
    static constexpr std::size_t cap_ = 40;
    std::vector<std::string> &out_;
    std::size_t total_ = 0;
};

template <typename T>
void
checkEq(Lines &lines, const std::string &what, const T &base,
        const T &cur)
{
    if (base != cur) {
        std::ostringstream os;
        os << what << ": baseline " << base << " != current " << cur;
        lines.add(os.str());
    }
}

} // namespace

std::span<const SimResultField>
simResultFields()
{
    return simFields;
}

void
BenchResult::addParam(const std::string &name, json::Value v)
{
    params.emplace_back(name, std::move(v));
}

void
BenchResult::addMetric(const std::string &name, double v)
{
    metrics.emplace_back(name, v);
}

void
BenchResult::addCells(const std::vector<SweepCellResult> &results)
{
    for (const auto &r : results) {
        ResultCell c;
        c.trace = r.traceKey;
        c.config = r.configLabel;
        c.traceInstrs = r.traceInstrs;
        c.sim = r.sim;
        c.mix = r.mix;
        cells.push_back(std::move(c));
    }
}

void
BenchResult::setStats(const SweepStats &s)
{
    stats = s;
    hasStats = true;
    hasInformational = true;
}

json::Value
BenchResult::toJson(bool includeInformational) const
{
    json::Object root;
    root.set("schema", schemaName);
    root.set("schemaVersion", schemaVersion);
    root.set("bench", bench);

    // Duplicate names would silently collapse to one JSON key in
    // Object::set, losing a data point — a bench bug, so fail loudly.
    json::Object p;
    for (const auto &[k, v] : params) {
        if (p.contains(k))
            throw std::logic_error("BenchResult: duplicate param \"" +
                                   k + "\"");
        p.set(k, v);
    }
    root.set("params", std::move(p));

    json::Object m;
    for (const auto &[k, v] : metrics) {
        if (m.contains(k))
            throw std::logic_error("BenchResult: duplicate metric \"" +
                                   k + "\"");
        m.set(k, json::Value(v));
    }
    root.set("metrics", std::move(m));

    json::Array cs;
    cs.reserve(cells.size());
    for (const auto &c : cells) {
        json::Object o;
        o.set("trace", c.trace);
        o.set("config", c.config);
        o.set("traceInstrs", c.traceInstrs);
        o.set("sim", simToJson(c.sim));
        o.set("mix", mixToJson(c.mix));
        cs.push_back(json::Value(std::move(o)));
    }
    root.set("cells", std::move(cs));

    if (hasStats) {
        json::Object sweep;
        json::Object simulated;
        simulated.set("cellsRun", stats.cellsRun);
        simulated.set("instrsReplayed", stats.instrsReplayed);
        sweep.set("simulated", std::move(simulated));
        if (includeInformational && hasInformational) {
            json::Object info;
            info.set("threads", stats.threads);
            info.set("tracesRecorded", stats.tracesRecorded);
            info.set("tracesLoaded", stats.tracesLoaded);
            info.set("tracesStored", stats.tracesStored);
            info.set("instrsRecorded", stats.instrsRecorded);
            info.set("instrsLoaded", stats.instrsLoaded);
            info.set("replayPasses", stats.replayPasses);
            info.set("decodeBytes", stats.decodeBytes);
            info.set("bytesMapped", stats.bytesMapped);
            info.set("recordSeconds", stats.recordSeconds);
            info.set("replaySeconds", stats.replaySeconds);
            info.set("loadSeconds", stats.loadSeconds);
            info.set("decodeSeconds", stats.decodeSeconds);
            info.set("wallSeconds", stats.wallSeconds);
            sweep.set(informationalKey, std::move(info));
        }
        root.set("sweep", std::move(sweep));
    }
    return json::Value(std::move(root));
}

BenchResult
BenchResult::fromJson(const json::Value &v)
{
    BenchResult r;
    try {
        const json::Object &root = v.asObject();
        if (requireString(root, "schema", "artifact") != schemaName)
            throw SchemaError("artifact: unknown schema name");
        const auto version =
            requireUint(root, "schemaVersion", "artifact");
        if (version != std::uint64_t(schemaVersion))
            throw SchemaError(
                "artifact: unsupported schemaVersion " +
                std::to_string(version) + " (this build understands " +
                std::to_string(schemaVersion) + ")");
        r.bench = requireString(root, "bench", "artifact");

        for (const auto &[k, pv] :
             require(root, "params", "artifact").asObject().members())
            r.params.emplace_back(k, pv);

        for (const auto &[k, mv] :
             require(root, "metrics", "artifact").asObject().members()) {
            if (!mv.isNumber())
                throw SchemaError("artifact.metrics." + k +
                                  ": not a number");
            r.metrics.emplace_back(k, mv.asDouble());
        }

        for (const json::Value &cv :
             require(root, "cells", "artifact").asArray()) {
            const json::Object &co = cv.asObject();
            ResultCell c;
            c.trace = requireString(co, "trace", "cell");
            c.config = requireString(co, "config", "cell");
            c.traceInstrs = requireUint(co, "traceInstrs", "cell");
            c.sim = simFromJson(require(co, "sim", "cell"), "cell.sim");
            c.mix = mixFromJson(require(co, "mix", "cell"), "cell.mix");
            r.cells.push_back(std::move(c));
        }

        if (const json::Value *sweep = root.find("sweep")) {
            r.hasStats = true;
            const json::Object &so = sweep->asObject();
            const json::Object &sim =
                require(so, "simulated", "sweep").asObject();
            r.stats.cellsRun = requireUint(sim, "cellsRun", "simulated");
            r.stats.instrsReplayed =
                requireUint(sim, "instrsReplayed", "simulated");
            if (const json::Value *info = so.find(informationalKey)) {
                r.hasInformational = true;
                const json::Object &io = info->asObject();
                r.stats.threads =
                    int(requireUint(io, "threads", "informational"));
                r.stats.tracesRecorded =
                    requireUint(io, "tracesRecorded", "informational");
                r.stats.tracesLoaded =
                    requireUint(io, "tracesLoaded", "informational");
                r.stats.tracesStored =
                    requireUint(io, "tracesStored", "informational");
                r.stats.instrsRecorded =
                    requireUint(io, "instrsRecorded", "informational");
                r.stats.instrsLoaded =
                    requireUint(io, "instrsLoaded", "informational");
                // Added after schemaVersion 1 artifacts already
                // existed; optional so old informational blocks
                // (informational additions don't bump the schema)
                // still parse.
                if (const json::Value *rp = io.find("replayPasses"))
                    r.stats.replayPasses = rp->asUint();
                if (const json::Value *db = io.find("decodeBytes"))
                    r.stats.decodeBytes = db->asUint();
                if (const json::Value *bm = io.find("bytesMapped"))
                    r.stats.bytesMapped = bm->asUint();
                if (const json::Value *ds = io.find("decodeSeconds"))
                    r.stats.decodeSeconds = ds->asDouble();
                // Removed informational field: older artifacts may
                // still carry "streamSeconds" (the retired fused
                // record+simulate pass); it is accepted and ignored.
                r.stats.recordSeconds =
                    requireDouble(io, "recordSeconds", "informational");
                r.stats.replaySeconds =
                    requireDouble(io, "replaySeconds", "informational");
                r.stats.loadSeconds =
                    requireDouble(io, "loadSeconds", "informational");
                r.stats.wallSeconds =
                    requireDouble(io, "wallSeconds", "informational");
            }
        }
    } catch (const json::TypeError &e) {
        throw SchemaError(std::string("artifact: ") + e.what());
    }
    return r;
}

BenchResult
BenchResult::parse(std::string_view text)
{
    json::Value v;
    try {
        v = json::parse(text);
    } catch (const json::ParseError &e) {
        throw SchemaError(e.what());
    }
    return fromJson(v);
}

BenchResult
loadResultFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SchemaError("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        throw SchemaError("cannot read " + path);
    try {
        return BenchResult::parse(buf.str());
    } catch (const SchemaError &e) {
        throw SchemaError(path + ": " + e.what());
    }
}

void
saveResultFile(const BenchResult &result, const std::string &path,
               bool includeInformational)
{
    const std::string text = result.serialize(includeInformational);
    // Per-process/per-call tmp name (same scheme as the trace store):
    // concurrent writers of the same artifact must not interleave into
    // one tmp file, or the rename would publish corrupt bytes.
    static const std::uint64_t processTag = [] {
        std::random_device rd;
        return (std::uint64_t{rd()} << 32) ^ rd();
    }();
    static std::atomic<std::uint64_t> counter{0};
    char suffix[48];
    std::snprintf(suffix, sizeof(suffix), ".tmp-%016llx-%llu",
                  static_cast<unsigned long long>(processTag),
                  static_cast<unsigned long long>(
                      counter.fetch_add(1, std::memory_order_relaxed)));
    const std::string tmp = path + suffix;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw std::runtime_error("cannot open " + tmp +
                                     " for writing");
        out.write(text.data(), std::streamsize(text.size()));
        out.flush();
        if (!out) {
            out.close();
            std::remove(tmp.c_str());
            throw std::runtime_error("cannot write " + tmp);
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot rename " + tmp + " to " + path);
    }
}

DiffReport
diffResults(const BenchResult &base, const BenchResult &cur)
{
    DiffReport report;
    Lines gate(report.regressions);

    checkEq(gate, "bench", base.bench, cur.bench);

    // Parameters: a changed workload makes the comparison
    // meaningless, which is itself a gating difference.
    checkEq(gate, "param count", base.params.size(),
            cur.params.size());
    for (std::size_t i = 0;
         i < std::min(base.params.size(), cur.params.size()); ++i) {
        const auto &[bk, bv] = base.params[i];
        const auto &[ck, cv] = cur.params[i];
        checkEq(gate, "param name[" + std::to_string(i) + "]", bk, ck);
        if (bk == ck)
            checkEq(gate, "param " + bk, bv.dump(), cv.dump());
    }

    checkEq(gate, "metric count", base.metrics.size(),
            cur.metrics.size());
    for (std::size_t i = 0;
         i < std::min(base.metrics.size(), cur.metrics.size()); ++i) {
        const auto &[bk, bv] = base.metrics[i];
        const auto &[ck, cv] = cur.metrics[i];
        checkEq(gate, "metric name[" + std::to_string(i) + "]", bk, ck);
        if (bk == ck && !sameBits(bv, cv))
            gate.add("metric " + bk + ": baseline " +
                     json::formatDouble(bv) + " != current " +
                     json::formatDouble(cv));
    }

    checkEq(gate, "cell count", base.cells.size(), cur.cells.size());
    for (std::size_t i = 0;
         i < std::min(base.cells.size(), cur.cells.size()); ++i) {
        const ResultCell &b = base.cells[i];
        const ResultCell &c = cur.cells[i];
        const std::string id = "cell[" + std::to_string(i) + " " +
                               b.trace +
                               (b.config.empty() ? "" : "@" + b.config) +
                               "]";
        checkEq(gate, id + ".trace", b.trace, c.trace);
        checkEq(gate, id + ".config", b.config, c.config);
        checkEq(gate, id + ".traceInstrs", b.traceInstrs,
                c.traceInstrs);
        checkEq(gate, id + ".sim.core", b.sim.core, c.sim.core);
        for (const SimResultField &f : simResultFields())
            checkEq(gate, id + ".sim." + f.name, b.sim.*f.member,
                    c.sim.*f.member);
        for (int k = 0; k < trace::numInstrClasses; ++k) {
            auto cls = static_cast<trace::InstrClass>(k);
            checkEq(gate,
                    id + ".mix." +
                        std::string(trace::instrClassName(cls)),
                    b.mix.count(cls), c.mix.count(cls));
        }
    }

    checkEq(gate, "has sweep stats", base.hasStats, cur.hasStats);
    if (base.hasStats && cur.hasStats) {
        checkEq(gate, "sweep.cellsRun", base.stats.cellsRun,
                cur.stats.cellsRun);
        checkEq(gate, "sweep.instrsReplayed",
                base.stats.instrsReplayed, cur.stats.instrsReplayed);

        // Informational: reported, never gating.
        if (base.hasInformational && cur.hasInformational) {
            std::ostringstream os;
            os << "wall time (informational): baseline "
               << json::formatDouble(base.stats.wallSeconds)
               << "s (threads " << base.stats.threads
               << ", recorded " << base.stats.tracesRecorded
               << ", loaded " << base.stats.tracesLoaded
               << ") -> current "
               << json::formatDouble(cur.stats.wallSeconds)
               << "s (threads " << cur.stats.threads << ", recorded "
               << cur.stats.tracesRecorded << ", loaded "
               << cur.stats.tracesLoaded << ", replay passes "
               << cur.stats.replayPasses << ", decoded "
               << cur.stats.decodeBytes << " B ("
               << cur.stats.bytesMapped << " B mmap'd)"
               << ")";
            report.notes.push_back(os.str());
        }
    }

    report.status =
        gate.any() ? DiffStatus::Regression : DiffStatus::Match;
    return report;
}

} // namespace uasim::core
