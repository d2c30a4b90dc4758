/**
 * @file
 * Processor configurations (the paper's Table II) and per-class
 * latencies.
 */

#ifndef UASIM_TIMING_CONFIG_HH
#define UASIM_TIMING_CONFIG_HH

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mem/hierarchy.hh"
#include "trace/instr.hh"
#include "trace/mix.hh"

namespace uasim::timing {

/// Execution-latency knobs (cycles).
struct LatencyConfig {
    int intAlu = 1;
    int intMul = 3;
    int fpAlu = 6;
    int branchResolve = 1;
    int vecSimple = 2;
    int vecComplex = 4;
    int vecPerm = 2;
    /// Load-to-use latency on an L1-D hit; the paper fixes this at 4
    /// for both aligned and unaligned accesses in the upper-bound runs.
    int load = 4;
    /**
     * Extra cycles charged to a dynamically unaligned lvxu (Fig 9
     * sweeps this over 0/1/2/4/6). The paper's proposed realignment
     * network costs +1.
     */
    int unalignedLoadExtra = 0;
    /// Same for stvxu; the proposed network costs +2.
    int unalignedStoreExtra = 0;
    /// Front-end refill after a mispredicted branch.
    int mispredictPenalty = 12;

    auto operator<=>(const LatencyConfig &) const = default;
};

/// Functional-unit pools (Table II "Units" rows).
struct UnitConfig {
    int fx = 2;      //!< scalar integer
    int fp = 1;      //!< scalar float
    int ls = 1;      //!< load/store
    int br = 1;      //!< branch
    int vi = 1;      //!< vector simple integer
    int vperm = 1;   //!< vector permute
    int vcmplx = 1;  //!< vector complex

    auto operator<=>(const UnitConfig &) const = default;
};

/// One simulated core (one column of Table II).
struct CoreConfig {
    std::string name = "2w";
    /**
     * Timing backend simulating this core, one of timingModelNames()
     * (each cell of BatchedPipelineSim follows its own): "pipeline" is
     * the paper's Turandot-like in-flight-window model, "ooo" the
     * ROB/issue-queue out-of-order core with store-set dependence
     * prediction.
     */
    std::string model = "pipeline";
    bool outOfOrder = false;
    /**
     * In-order static-scheduling window: an in-order core may issue a
     * ready younger instruction from the next N waiting entries. This
     * approximates the compile-time scheduling real in-order targets
     * rely on (the trace is in naive emission order); 1 = strict
     * head-blocking issue.
     */
    int inorderLookahead = 4;
    int fetchWidth = 2;    //!< fetch = rename = dispatch = issue width
    int retireWidth = 4;
    int inflight = 80;     //!< ROB / max in-flight instructions
    int issueQ = 10;       //!< non-branch issue-queue capacity
    int branchQ = 5;       //!< branch issue-queue capacity
    int ibuffer = 12;      //!< fetch-buffer capacity
    UnitConfig units;
    int gprPhys = 60;
    int fprPhys = 60;
    int vprPhys = 60;
    int dReadPorts = 1;
    int dWritePorts = 1;
    int missMax = 2;       //!< outstanding D-cache misses (MSHRs)
    int storeQ = 16;
    /**
     * Branch-predictor table size (log2 of 2-bit-counter entries).
     * The Table II machines all use the 4K-entry gshare default;
     * sweepable per cell like every other knob.
     */
    int bpredLog2Entries = 12;
    /**
     * Issue width of the "ooo" backend; 0 (the default) couples it to
     * fetchWidth, as the "pipeline" backend always does.
     */
    int issueWidth = 0;
    /// Store-set SSIT size (log2 of entries) of the "ooo" backend's
    /// memory-dependence predictor.
    int storeSetLog2 = 10;
    /**
     * Deterministic extra load latency charged by the "ooo" backend
     * when a load speculates past an older overlapping store (a
     * memory-order violation that would squash and replay the load on
     * real hardware; the violation also trains the store-set table so
     * later instances of the pair wait instead).
     */
    int memReplayPenalty = 7;
    LatencyConfig lat;
    mem::HierarchyConfig mem;

    /// Member-wise comparison (and ==), so configs can key a std::map.
    auto operator<=>(const CoreConfig &) const = default;

    /**
     * Reject impossible configurations with std::invalid_argument
     * naming the offending field: any coreConfigFields() value outside
     * its [lo, hi] (widths, windows, queues, ports, units or register
     * files below 1 or above a fixed bound, negative or oversized
     * latencies, out-of-range predictor sizes), or an empty model.
     * Every timing backend calls this at construction, so a malformed
     * sweep cell fails loudly in any model instead of deadlocking or
     * silently misbehaving in one of them.
     */
    void validate() const;

    /**
     * The PR 5 deadlock rule, shared by every backend's load-issue
     * path: under serialized banks (mem.parallelBanks == false) a
     * line-crossing load occupies a second D-cache read port in the
     * same cycle - but only on a machine that has one. A single-ported
     * core serializes the second bank access in the load pipe instead;
     * demanding two ports of a one-port machine would make the load
     * permanently unissuable and deadlock the ROB.
     */
    bool
    crossingLoadNeedsSecondPort() const
    {
        return !mem.parallelBanks && dReadPorts >= 2;
    }

    /// Table II, 2-way in-order column.
    static CoreConfig twoWayInOrder();
    /// Table II, 4-way out-of-order column.
    static CoreConfig fourWayOoO();
    /// Table II, 8-way out-of-order column.
    static CoreConfig eightWayOoO();

    /// The paper's three configurations in presentation order.
    static const char *const presetNames[3];
    static CoreConfig preset(int idx);
};

/// Registered CoreConfig::model names, in presentation order.
const std::vector<std::string> &timingModelNames();

/// True when @p name is one of timingModelNames(). validate() does not
/// check it; the engine's constructor rejects an unknown model, and
/// callers with a command line check here first and exit 2.
bool isTimingModel(const std::string &name);

/**
 * When the timing backends read a CoreConfig field. A field is read by
 * a cell only if the trace holds a record of one of @p classes (0 = of
 * any class) and the cell satisfies @p cells (nullptr = every cell).
 * Every relevance set here is proven by a property test
 * (tests/batched_replay_test.cc): perturbing the field where it is not
 * read leaves every simulated counter bit-identical.
 */
struct FieldRelevance {
    std::uint32_t classes = 0;  //!< bitmask over trace::InstrClass
    bool (*cells)(const CoreConfig &) = nullptr;

    /// Whether a @p cfg cell replaying a trace of mix @p mix reads it.
    bool readBy(const CoreConfig &cfg, const trace::InstrMix &mix) const;
};

/// One settable CoreConfig field: its dotted member path, an accessor,
/// the range validate() enforces and when the backends read it.
struct CoreConfigField {
    const char *name;  //!< "fetchWidth", "lat.load", "mem.memLatency", ...
    long long (*get)(const CoreConfig &);
    void (*set)(CoreConfig &, long long);
    int lo;
    int hi;
    FieldRelevance relevance;
};

/**
 * The one table of settable CoreConfig fields, in validate() order:
 * validate(), the campaign [core]/[axes] keys (core/campaign.hh) and
 * canonicalConfig() all derive from it.
 */
std::span<const CoreConfigField> coreConfigFields();

/**
 * @p cfg with everything a cell replaying a trace of mix @p mix cannot
 * observe reset: the name is cleared, and each field whose relevance
 * excludes this trace or this cell takes its default-constructed
 * value. Two cells with equal canonical configs produce the same
 * SimResult apart from SimResult::core (the config name), so a sweep
 * simulates them once. Validate the original config first: the reset
 * would hide an out-of-range value of an unread field.
 */
CoreConfig canonicalConfig(CoreConfig cfg, const trace::InstrMix &mix);

/**
 * The canonical "pipeline" config (cfg.outOfOrder set) that the "ooo"
 * config @p oooCfg provably equals on a trace of mix @p mix as long as
 * no load finds an older overlapping store it cannot forward from -
 * the only point where the backends part (timing/batched_pipeline.hh).
 * Only an "ooo" config whose issue width resolves to fetchWidth
 * (issueWidth 0 or equal to it) has a twin; any other config gets
 * std::nullopt. Whether no load blocked is known only after the twin
 * ran: BatchedPipelineSim::CellWork::blockedLoads.
 */
std::optional<CoreConfig> pipelineTwin(CoreConfig oooCfg,
                                       const trace::InstrMix &mix);

/// Functional-unit index for an instruction class.
enum class Unit { FX, FP, LS, BR, VI, VPERM, VCMPLX, NumUnits };

constexpr int numUnits = static_cast<int>(Unit::NumUnits);

/// Map an instruction class to the unit that executes it.
Unit unitFor(trace::InstrClass cls);

/// Register file an instruction's destination lives in.
enum class RegFile { GPR, FPR, VPR, None };

/// Map an instruction class to its destination register file.
RegFile destRegFile(trace::InstrClass cls);

} // namespace uasim::timing

#endif // UASIM_TIMING_CONFIG_HH
