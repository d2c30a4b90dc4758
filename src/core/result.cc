#include "core/result.hh"

#include <bit>
#include <limits>
#include <sstream>
#include <type_traits>

#include "core/field_table.hh"
#include "trace/file_io.hh"
#include "trace/instr.hh"

namespace uasim::core {

namespace {

/// Key of the artifact's informational (never gating) stats block.
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

// `core` is the one member serialized by hand, next to each loop.
static_assert(coversEveryMember<timing::SimResult, simFields, 1>());

constexpr bool gates = true;
constexpr bool required = true;

constexpr SweepStatsField statsFields[] = {
    {"cellsRun", &SweepStats::cellsRun, gates, required},
    {"instrsReplayed", &SweepStats::instrsReplayed, gates, required},
    {"threads", &SweepStats::threads, !gates, required},
    {"tracesRecorded", &SweepStats::tracesRecorded, !gates, required},
    {"tracesLoaded", &SweepStats::tracesLoaded, !gates, required},
    {"tracesStored", &SweepStats::tracesStored, !gates, required},
    {"instrsRecorded", &SweepStats::instrsRecorded, !gates, required},
    {"instrsLoaded", &SweepStats::instrsLoaded, !gates, required},
    // Optional: added after schemaVersion 1 artifacts already existed
    // (informational additions don't bump the schema).
    {"cellsSimulated", &SweepStats::cellsSimulated, !gates, !required},
    {"twinCopies", &SweepStats::twinCopies, !gates, !required},
    {"blockedLoads", &SweepStats::blockedLoads, !gates, !required},
    {"executedCycles", &SweepStats::executedCycles, !gates, !required},
    {"idleJumpedCycles", &SweepStats::idleJumpedCycles, !gates,
     !required},
    {"idleCycles", &SweepStats::idleCycles, !gates, !required},
    {"issueAttempts", &SweepStats::issueAttempts, !gates, !required},
    {"producerChecks", &SweepStats::producerChecks, !gates, !required},
    {"producerWaits", &SweepStats::producerWaits, !gates, !required},
    {"tokenWaits", &SweepStats::tokenWaits, !gates, !required},
    {"portWaits", &SweepStats::portWaits, !gates, !required},
    {"storeWaits", &SweepStats::storeWaits, !gates, !required},
    {"mshrWaits", &SweepStats::mshrWaits, !gates, !required},
    {"wakeSkips", &SweepStats::wakeSkips, !gates, !required},
    {"watcherFlushes", &SweepStats::watcherFlushes, !gates, !required},
    {"replayPasses", &SweepStats::replayPasses, !gates, !required},
    {"decodeBytes", &SweepStats::decodeBytes, !gates, !required},
    {"recordSeconds", &SweepStats::recordSeconds, !gates, required},
    {"replaySeconds", &SweepStats::replaySeconds, !gates, required},
    {"loadSeconds", &SweepStats::loadSeconds, !gates, required},
    {"decodeSeconds", &SweepStats::decodeSeconds, !gates, !required},
    {"wallSeconds", &SweepStats::wallSeconds, !gates, required},
};

static_assert(coversEveryMember<SweepStats, statsFields>());

/// Load @p out from @p v: a double, or an unsigned integer it can hold.
template <typename T>
void
readStat(const json::Value &v, T &out)
{
    if constexpr (std::is_floating_point_v<T>) {
        out = v.asDouble();
    } else {
        const std::uint64_t u = v.asUint();
        constexpr auto max = std::uint64_t(std::numeric_limits<T>::max());
        if (u > max)
            throw json::TypeError(std::to_string(u) + " exceeds " +
                                  std::to_string(max));
        out = T(u);
    }
}

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

std::span<const SweepStatsField>
sweepStatsFields()
{
    return statsFields;
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
        json::Object simulated;
        json::Object info;
        for (const SweepStatsField &f : sweepStatsFields()) {
            json::Object &block = f.gating ? simulated : info;
            std::visit([&](auto m) { block.set(f.name, stats.*m); },
                       f.member);
        }
        json::Object sweep;
        sweep.set("simulated", std::move(simulated));
        if (includeInformational && hasInformational)
            sweep.set(informationalKey, std::move(info));
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
            const json::Value *info = so.find(informationalKey);
            r.hasInformational = info != nullptr;
            // Keys of no row (the retired "streamSeconds" of the fused
            // record+simulate pass, "bytesMapped" of the mmap read
            // path) are accepted and ignored.
            for (const SweepStatsField &f : sweepStatsFields()) {
                if (!f.gating && !info)
                    continue;
                const json::Object &block =
                    f.gating ? sim : info->asObject();
                const char *where =
                    f.gating ? "simulated" : informationalKey;
                const json::Value *v = f.required
                    ? &require(block, f.name, where)
                    : block.find(f.name);
                if (!v)
                    continue;
                try {
                    std::visit([&](auto m) { readStat(*v, r.stats.*m); },
                               f.member);
                } catch (const json::TypeError &e) {
                    throw SchemaError(std::string(where) + "." + f.name +
                                      ": " + e.what());
                }
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
    std::string text;
    try {
        text = trace::readFile(path);
    } catch (const trace::IoError &e) {
        throw SchemaError(e.what());
    }
    try {
        return BenchResult::parse(text);
    } catch (const SchemaError &e) {
        throw SchemaError(path + ": " + e.what());
    }
}

void
saveResultFile(const BenchResult &result, const std::string &path,
               bool includeInformational)
{
    const std::string text = result.serialize(includeInformational);
    // Concurrent writers of one artifact each write their own
    // temporary, so the rename never publishes interleaved bytes.
    trace::AtomicPublish publish(path);
    trace::File out(publish.tempPath(), trace::File::Mode::Write);
    out.write(text.data(), text.size());
    out.close();
    publish.commit();
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
        for (const SweepStatsField &f : sweepStatsFields()) {
            if (!f.gating)
                continue;
            std::visit(
                [&](auto m) {
                    checkEq(gate, std::string("sweep.") + f.name,
                            base.stats.*m, cur.stats.*m);
                },
                f.member);
        }

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
               << cur.stats.tracesLoaded << ", simulated cells "
               << cur.stats.cellsSimulated << ", twin copies "
               << cur.stats.twinCopies << ", replay passes "
               << cur.stats.replayPasses << ", decoded "
               << cur.stats.decodeBytes << " B)";
            report.notes.push_back(os.str());
        }
    }

    report.status =
        gate.any() ? DiffStatus::Regression : DiffStatus::Match;
    return report;
}

} // namespace uasim::core
