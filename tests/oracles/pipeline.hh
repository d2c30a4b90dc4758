/**
 * @file
 * Trace-driven superscalar pipeline model (the Turandot-like simulator).
 *
 * The model consumes InstrRecords in program order (it is itself a
 * TraceSink, so emulated kernels can stream straight into it) and
 * advances a cycle-level machine:
 *
 *   fetch -> dispatch(rename) -> issue -> execute -> retire
 *
 * Modeled mechanisms, per Table II of the paper: fetch/dispatch/issue
 * width, in-order vs out-of-order issue, per-class functional-unit
 * pools (FX/FP/LS/BR/VI/VPERM/VCMPLX), issue-queue and branch-queue
 * capacities, ROB (in-flight) limit, physical-register rename limits,
 * D-cache read/write ports, MSHR (outstanding-miss) limit, a store
 * queue with store-to-load forwarding, a gshare branch predictor with
 * front-end redirect penalty, the L1/L2 hierarchy, and the alignment
 * network's extra latency for dynamically unaligned lvxu/stvxu.
 *
 * Wrong-path execution is approximated the standard trace-driven way:
 * fetch halts at a mispredicted branch and resumes a redirect penalty
 * after the branch resolves.
 *
 * This is the reference implementation of the "pipeline" backend, a
 * test-only oracle (the uasim_oracles library, built with the test
 * suites): production runs use BatchedPipelineSim
 * (timing/batched_pipeline.hh), which tests/batched_replay_test.cc
 * proves bit-identical to it.
 */

#ifndef UASIM_ORACLES_PIPELINE_HH
#define UASIM_ORACLES_PIPELINE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/hierarchy.hh"
#include "timing/branch_pred.hh"
#include "timing/config.hh"
#include "timing/results.hh"
#include "trace/sink.hh"

namespace uasim::timing {

class PipelineSim : public trace::TraceSink
{
  public:
    explicit PipelineSim(const CoreConfig &cfg);

    /// TraceSink hook: stream one instruction into the machine.
    void append(const trace::InstrRecord &rec) override { feed(rec); }

    /// Feed one instruction (program order).
    void feed(const trace::InstrRecord &rec);

    /// Drain the machine and return the final statistics. Idempotent.
    SimResult finalize();

    /// Cycles elapsed so far (monotonic during feeding).
    std::uint64_t now() const { return now_; }

    mem::MemoryHierarchy &memory() { return mem_; }

  private:
    enum class State : std::uint8_t { Waiting, Issued };

    struct Slot {
        trace::InstrRecord rec;
        std::uint64_t readyCycle = 0;
        State state = State::Waiting;
        bool mispredict = false;
    };

    struct StoreEntry {
        std::uint64_t id = 0;
        std::uint64_t addr = 0;
        std::uint64_t fwdReady = 0;  //!< cycle data becomes forwardable
        unsigned size = 0;
        bool issued = false;
    };

    // -- pipeline stages (called once per cycle, youngest stage last) --
    void cycle();
    void retireStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    /// Attempt to issue one slot; @return true if it issued.
    bool tryIssue(Slot &slot);

    /// Ready cycle of a producer (0 if long retired, MAX if not issued).
    std::uint64_t
    readyCycleOf(std::uint64_t id) const
    {
        if (!id)
            return 0;
        const auto &e = readyRing_[id & ringMask_];
        return e.id == id ? e.cycle : 0;
    }

    void
    setReady(std::uint64_t id, std::uint64_t cycle)
    {
        auto &e = readyRing_[id & ringMask_];
        e.id = id;
        e.cycle = cycle;
    }

    bool depsReady(const trace::InstrRecord &rec) const;

    static constexpr std::uint64_t notReady = ~std::uint64_t{0};

    /**
     * Floor for the producer-ready ring. The ring is sized at
     * construction to a power of two with at least 2x headroom over
     * cfg.inflight: live ids span at most the in-flight window, so
     * doubling it guarantees two live instructions can never alias a
     * slot (aliasing would silently corrupt dependency timing).
     */
    static constexpr std::size_t minRingSize = 1024;

    struct ReadyEntry {
        std::uint64_t id = 0;
        std::uint64_t cycle = 0;
    };

    CoreConfig cfg_;
    mem::MemoryHierarchy mem_;
    BranchPredictor bpred_;

    std::uint64_t now_ = 0;

    std::deque<trace::InstrRecord> pending_;  //!< staged by feed()
    std::deque<Slot> fetchBuf_;               //!< fetched, not dispatched
    std::deque<Slot> rob_;                    //!< dispatched, not retired
    std::vector<ReadyEntry> readyRing_;       //!< sized from cfg.inflight
    std::size_t ringMask_ = 0;
    std::vector<StoreEntry> storeQ_;
    std::vector<std::uint64_t> mshr_;         //!< miss completion cycles

    // Fetch redirection state.
    std::uint64_t fetchStallUntil_ = 0;
    std::uint64_t haltBranchId_ = 0;  //!< fetch halted behind this branch
    std::uint64_t lastFetchLine_ = ~std::uint64_t{0};

    // Rename occupancy.
    int gprInflight_ = 0;
    int fprInflight_ = 0;
    int vprInflight_ = 0;

    // Issue-queue occupancy (waiting entries only).
    int waitingNonBranch_ = 0;
    int waitingBranch_ = 0;

    // Per-cycle resource tokens.
    int unitTokens_[numUnits] = {};
    int readPorts_ = 0;
    int writePorts_ = 0;
    int issueTokens_ = 0;

    SimResult res_;
    bool finalized_ = false;

    int renameLimit(RegFile rf) const;
    int *renameCounter(RegFile rf);

    /// Execution latency for a non-memory class.
    int classLatency(trace::InstrClass cls) const;
};

} // namespace uasim::timing

#endif // UASIM_ORACLES_PIPELINE_HH
