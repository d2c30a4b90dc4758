#include "timing/config.hh"

#include <stdexcept>
#include <string>

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

void
requireRange(const char *field, int v, int lo, int hi)
{
    if (v < lo || v > hi) {
        throw std::invalid_argument(
            std::string("CoreConfig: ") + field + " out of range [" +
            std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
}

/// A structure size: at least one entry, at most maxStructureSize.
void
requireSize(const char *field, int v)
{
    requireRange(field, v, 1, maxStructureSize);
}

/// A latency or penalty in cycles.
void
requireLatency(const char *field, int v)
{
    requireRange(field, v, 0, maxLatency);
}

} // namespace

void
CoreConfig::validate() const
{
    requireSize("fetchWidth", fetchWidth);
    requireSize("retireWidth", retireWidth);
    requireSize("inflight", inflight);
    requireSize("issueQ", issueQ);
    requireSize("branchQ", branchQ);
    requireSize("ibuffer", ibuffer);
    requireSize("storeQ", storeQ);
    requireSize("dReadPorts", dReadPorts);
    requireSize("dWritePorts", dWritePorts);
    requireSize("missMax", missMax);
    requireSize("inorderLookahead", inorderLookahead);
    requireSize("gprPhys", gprPhys);
    requireSize("fprPhys", fprPhys);
    requireSize("vprPhys", vprPhys);
    // 0 = fetchWidth.
    requireRange("issueWidth", issueWidth, 0, maxStructureSize);
    requireSize("units.fx", units.fx);
    requireSize("units.fp", units.fp);
    requireSize("units.ls", units.ls);
    requireSize("units.br", units.br);
    requireSize("units.vi", units.vi);
    requireSize("units.vperm", units.vperm);
    requireSize("units.vcmplx", units.vcmplx);
    requireRange("bpredLog2Entries", bpredLog2Entries, 1, 28);
    requireRange("storeSetLog2", storeSetLog2, 1, 28);
    requireLatency("lat.intAlu", lat.intAlu);
    requireLatency("lat.intMul", lat.intMul);
    requireLatency("lat.fpAlu", lat.fpAlu);
    requireLatency("lat.branchResolve", lat.branchResolve);
    requireLatency("lat.vecSimple", lat.vecSimple);
    requireLatency("lat.vecComplex", lat.vecComplex);
    requireLatency("lat.vecPerm", lat.vecPerm);
    requireLatency("lat.load", lat.load);
    requireLatency("lat.unalignedLoadExtra", lat.unalignedLoadExtra);
    requireLatency("lat.unalignedStoreExtra", lat.unalignedStoreExtra);
    requireLatency("lat.mispredictPenalty", lat.mispredictPenalty);
    requireLatency("mem.l2Latency", mem.l2Latency);
    requireLatency("mem.memLatency", mem.memLatency);
    requireLatency("memReplayPenalty", memReplayPenalty);
    // 0 = unthrottled.
    requireRange("mem.memBWBytesPerCycle", mem.memBWBytesPerCycle, 0,
                 maxStructureSize);
    if (model.empty())
        throw std::invalid_argument("CoreConfig: empty model name");
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
