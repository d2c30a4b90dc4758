#include "timing/config.hh"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace uasim::timing {

namespace {

/**
 * Upper bound on every width, window, queue, port, unit and register
 * count. Far above any modelled core (the 8w preset's largest
 * structure is its 255-entry window; test grids reach 4096), yet
 * small enough that the engines' per-structure rings stay bounded
 * instead of failing allocation.
 */
constexpr int maxStructureSize = 1 << 16;

/// Upper bound on every latency and penalty: over 4000x the 250-cycle
/// memory latency, and low enough that sums of latencies can never
/// overflow an int.
constexpr int maxLatency = 1 << 20;

using trace::InstrClass;

constexpr std::uint32_t
classBit(InstrClass cls)
{
    return std::uint32_t(1) << unsigned(cls);
}

/// Read only by "ooo" cells (the store-set predictor, the decoupled
/// issue width).
bool
oooCell(const CoreConfig &c)
{
    return c.model == "ooo";
}

/// Read only by in-order "pipeline" cells: the static-scheduling
/// lookahead window.
bool
inOrderPipelineCell(const CoreConfig &c)
{
    return c.model != "ooo" && !c.outOfOrder;
}

// One table row. The member path is both the dotted name and the
// accessor, so the two cannot drift apart; a bool field reads as 0/1
// and is set by v != 0.
#define UASIM_CORE_FIELD(path, lo, hi, relevance)                          \
    CoreConfigField{                                                       \
        #path, [](const CoreConfig &c) -> long long { return c.path; },    \
        [](CoreConfig &c, long long v) { c.path = decltype(c.path)(v); }, \
        lo, hi, relevance}

// Sizes lie in [1, maxStructureSize], latencies in [0, maxLatency].
constexpr CoreConfigField fieldTable[] = {
    UASIM_CORE_FIELD(fetchWidth, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(retireWidth, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(inflight, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(issueQ, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(branchQ, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(ibuffer, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(storeQ, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(dReadPorts, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(dWritePorts, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(missMax, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(inorderLookahead, 1, maxStructureSize,
                     (FieldRelevance{0, inOrderPipelineCell})),
    UASIM_CORE_FIELD(gprPhys, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(fprPhys, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(vprPhys, 1, maxStructureSize, {}),
    // 0 = fetchWidth.
    UASIM_CORE_FIELD(issueWidth, 0, maxStructureSize,
                     (FieldRelevance{0, oooCell})),
    UASIM_CORE_FIELD(units.fx, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(units.fp, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(units.ls, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(units.br, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(units.vi, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(units.vperm, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(units.vcmplx, 1, maxStructureSize, {}),
    UASIM_CORE_FIELD(bpredLog2Entries, 1, 28, {}),
    UASIM_CORE_FIELD(storeSetLog2, 1, 28, (FieldRelevance{0, oooCell})),
    UASIM_CORE_FIELD(lat.intAlu, 0, maxLatency, {}),
    UASIM_CORE_FIELD(lat.intMul, 0, maxLatency, {}),
    UASIM_CORE_FIELD(lat.fpAlu, 0, maxLatency, {}),
    UASIM_CORE_FIELD(lat.branchResolve, 0, maxLatency, {}),
    UASIM_CORE_FIELD(lat.vecSimple, 0, maxLatency, {}),
    UASIM_CORE_FIELD(lat.vecComplex, 0, maxLatency, {}),
    UASIM_CORE_FIELD(lat.vecPerm, 0, maxLatency, {}),
    UASIM_CORE_FIELD(lat.load, 0, maxLatency, {}),
    UASIM_CORE_FIELD(lat.unalignedLoadExtra, 0, maxLatency,
                     (FieldRelevance{classBit(InstrClass::VecLoadU)})),
    UASIM_CORE_FIELD(lat.unalignedStoreExtra, 0, maxLatency,
                     (FieldRelevance{classBit(InstrClass::VecStoreU)})),
    UASIM_CORE_FIELD(lat.mispredictPenalty, 0, maxLatency, {}),
    UASIM_CORE_FIELD(mem.l2Latency, 0, maxLatency, {}),
    UASIM_CORE_FIELD(mem.memLatency, 0, maxLatency, {}),
    UASIM_CORE_FIELD(memReplayPenalty, 0, maxLatency,
                     (FieldRelevance{0, oooCell})),
    // 0 = unthrottled.
    UASIM_CORE_FIELD(mem.memBWBytesPerCycle, 0, maxStructureSize, {}),
    UASIM_CORE_FIELD(mem.parallelBanks, 0, 1, {}),
};

#undef UASIM_CORE_FIELD

} // namespace

bool
FieldRelevance::readBy(const CoreConfig &cfg,
                       const trace::InstrMix &mix) const
{
    if (cells && !cells(cfg))
        return false;
    if (classes == 0)
        return true;
    for (int k = 0; k < trace::numInstrClasses; ++k) {
        if ((classes >> k & 1u) && mix.count(InstrClass(k)) != 0)
            return true;
    }
    return false;
}

std::span<const CoreConfigField>
coreConfigFields()
{
    return fieldTable;
}

CoreConfig
canonicalConfig(CoreConfig cfg, const trace::InstrMix &mix)
{
    static const CoreConfig defaults;
    cfg.name.clear();
    // No relevance predicate reads a table field, so resetting one
    // field never changes whether another is read.
    for (const CoreConfigField &f : fieldTable) {
        if (!f.relevance.readBy(cfg, mix))
            f.set(cfg, f.get(defaults));
    }
    return cfg;
}

std::optional<CoreConfig>
pipelineTwin(CoreConfig oooCfg, const trace::InstrMix &mix)
{
    if (!oooCell(oooCfg) ||
        (oooCfg.issueWidth != 0 && oooCfg.issueWidth != oooCfg.fetchWidth))
        return std::nullopt;
    // Out-of-order issue at fetchWidth; canonicalization then resets
    // the "ooo"-only fields (issue width, store sets, replay penalty).
    oooCfg.model = "pipeline";
    oooCfg.outOfOrder = true;
    return canonicalConfig(std::move(oooCfg), mix);
}

void
CoreConfig::validate() const
{
    for (const CoreConfigField &f : fieldTable) {
        const long long v = f.get(*this);
        if (v < f.lo || v > f.hi) {
            throw std::invalid_argument(
                std::string("CoreConfig: ") + f.name + " out of range [" +
                std::to_string(f.lo) + ", " + std::to_string(f.hi) + "]");
        }
    }
    if (model.empty())
        throw std::invalid_argument("CoreConfig: empty model name");
}

const std::vector<std::string> &
timingModelNames()
{
    static const std::vector<std::string> names = {"pipeline", "ooo"};
    return names;
}

bool
isTimingModel(const std::string &name)
{
    return std::ranges::find(timingModelNames(), name) !=
        timingModelNames().end();
}

CoreConfig
CoreConfig::twoWayInOrder()
{
    CoreConfig c;
    c.name = "2w";
    c.outOfOrder = false;
    // Narrow dual-issue embedded-style core: little room for static
    // scheduling around the strict pair-issue constraints.
    c.inorderLookahead = 2;
    c.fetchWidth = 2;
    c.retireWidth = 4;
    c.inflight = 80;
    c.issueQ = 10;
    c.branchQ = 5;
    c.ibuffer = 12;
    c.units = {2, 1, 1, 1, 1, 1, 1};
    c.gprPhys = c.fprPhys = c.vprPhys = 60;
    c.dReadPorts = 1;
    c.dWritePorts = 1;
    c.missMax = 2;
    c.storeQ = 16;
    return c;
}

CoreConfig
CoreConfig::fourWayOoO()
{
    CoreConfig c;
    c.name = "4w";
    c.outOfOrder = true;
    c.fetchWidth = 4;
    c.retireWidth = 6;
    c.inflight = 160;
    c.issueQ = 20;
    c.branchQ = 12;
    c.ibuffer = 24;
    c.units = {3, 2, 2, 2, 2, 1, 1};
    c.gprPhys = c.fprPhys = c.vprPhys = 80;
    c.dReadPorts = 2;
    c.dWritePorts = 1;
    c.missMax = 4;
    c.storeQ = 24;
    return c;
}

CoreConfig
CoreConfig::eightWayOoO()
{
    CoreConfig c;
    c.name = "8w";
    c.outOfOrder = true;
    c.fetchWidth = 8;
    c.retireWidth = 12;
    c.inflight = 255;
    c.issueQ = 40;
    c.branchQ = 40;
    c.ibuffer = 48;
    c.units = {6, 4, 4, 4, 4, 2, 2};
    c.gprPhys = c.fprPhys = c.vprPhys = 128;
    c.dReadPorts = 4;
    c.dWritePorts = 2;
    c.missMax = 8;
    c.storeQ = 32;
    return c;
}

const char *const CoreConfig::presetNames[3] = {"2w", "4w", "8w"};

CoreConfig
CoreConfig::preset(int idx)
{
    switch (idx) {
      case 0: return twoWayInOrder();
      case 1: return fourWayOoO();
      default: return eightWayOoO();
    }
}

Unit
unitFor(trace::InstrClass cls)
{
    using IC = trace::InstrClass;
    switch (cls) {
      case IC::IntAlu:
      case IC::IntMul:
        return Unit::FX;
      case IC::FpAlu:
        return Unit::FP;
      case IC::Load:
      case IC::Store:
      case IC::VecLoad:
      case IC::VecStore:
      case IC::VecLoadU:
      case IC::VecStoreU:
        return Unit::LS;
      case IC::Branch:
        return Unit::BR;
      case IC::VecSimple:
        return Unit::VI;
      case IC::VecComplex:
        return Unit::VCMPLX;
      case IC::VecPerm:
      default:
        return Unit::VPERM;
    }
}

RegFile
destRegFile(trace::InstrClass cls)
{
    using IC = trace::InstrClass;
    switch (cls) {
      case IC::IntAlu:
      case IC::IntMul:
      case IC::Load:
        return RegFile::GPR;
      case IC::FpAlu:
        return RegFile::FPR;
      case IC::VecLoad:
      case IC::VecLoadU:
      case IC::VecSimple:
      case IC::VecComplex:
      case IC::VecPerm:
        return RegFile::VPR;
      default:
        return RegFile::None;
    }
}

} // namespace uasim::timing
