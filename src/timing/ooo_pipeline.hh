/**
 * @file
 * Reference oracle of the "ooo" timing backend: a straightforward
 * out-of-order core with a ROB / issue-queue split and store-set
 * memory-dependence prediction. It is not a production engine -
 * every "ooo" cell runs on BatchedPipelineSim
 * (timing/batched_pipeline.hh), which tests/batched_replay_test.cc
 * diffs against this simulator cell for cell over the full
 * simResultFields() table.
 *
 * Where the "pipeline" backend models the paper's Table II machines with a
 * single in-flight window walked by every stage, this model keeps
 * the reorder buffer (program-order retirement) and the issue queue
 * (the pool of not-yet-issued instructions) as separate structures:
 * issue scans only the waiting pool, fully out of order, under its
 * own issue width (CoreConfig::issueWidth; 0 couples it to
 * fetchWidth). The model is always out of order - it ignores
 * CoreConfig::outOfOrder/inorderLookahead, which belong to the
 * "pipeline" backend's static-scheduling approximation.
 *
 * Memory dependences use a store-set predictor (Chrysos & Emer,
 * simplified): an untrained load speculates past older overlapping
 * stores it cannot forward from, paying a deterministic
 * memReplayPenalty for the ordering violation and training the SSIT
 * so later instances of the load/store pair wait instead. The
 * "pipeline" backend's behavior corresponds to an always-predicted
 * dependence (every aliasing load waits).
 *
 * Stream-pure discipline shared with every backend: the fetch stage
 * predicts and trains the gshare predictor exactly once per branch,
 * in program order, and halts behind mispredicts - so instruction,
 * branch, mispredict and unaligned-op counts are identical to the
 * "pipeline" backend on the same stream while cycle timing differs
 * (tests/timing_model_test.cc locks this).
 */

#ifndef UASIM_TIMING_OOO_PIPELINE_HH
#define UASIM_TIMING_OOO_PIPELINE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/hierarchy.hh"
#include "timing/branch_pred.hh"
#include "timing/config.hh"
#include "timing/model.hh"
#include "timing/results.hh"

namespace uasim::timing {

class OoOPipelineSim : public TimingModel
{
  public:
    explicit OoOPipelineSim(const CoreConfig &cfg);

    /// TraceSink hook: stream one instruction into the machine.
    void append(const trace::InstrRecord &rec) override { feed(rec); }

    /// Feed one instruction (program order).
    void feed(const trace::InstrRecord &rec);

    /// Drain the machine and return the final statistics.
    SimResult finalize() override;

    const CoreConfig &config() const override { return cfg_; }

    /// Cycles elapsed so far (monotonic during feeding).
    std::uint64_t now() const { return now_; }

    /// Memory-order violations taken (loads that speculated past an
    /// older overlapping store and paid memReplayPenalty). Not part
    /// of SimResult: it is a backend-internal diagnostic, observable
    /// in cycles either way.
    std::uint64_t memOrderReplays() const { return memOrderReplays_; }

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
        std::uint64_t pc = 0;
        std::uint64_t addr = 0;
        std::uint64_t fwdReady = 0;  //!< cycle data becomes forwardable
        unsigned size = 0;
        bool issued = false;
    };

    void cycle();
    void retireStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    bool tryIssue(Slot &slot);

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

    std::size_t
    ssitIndex(std::uint64_t pc) const
    {
        return std::size_t(pc >> 2) & (ssit_.size() - 1);
    }

    /// Allocate a store-set id (cycling through [1, tableSize)).
    std::uint32_t allocSet();

    /// Record a load/store ordering violation: merge both PCs into
    /// one store set so the next instance of the pair waits.
    void trainStoreSet(std::uint64_t load_pc, std::uint64_t store_pc);

    static constexpr std::uint64_t notReady = ~std::uint64_t{0};

    /// Same producer-ready-ring floor as PipelineSim::minRingSize.
    static constexpr std::size_t minRingSize = 1024;

    struct ReadyEntry {
        std::uint64_t id = 0;
        std::uint64_t cycle = 0;
    };

    CoreConfig cfg_;
    mem::MemoryHierarchy mem_;
    BranchPredictor bpred_;
    int issueWidth_ = 1;  //!< resolved cfg.issueWidth (0 -> fetchWidth)

    std::uint64_t now_ = 0;

    std::deque<trace::InstrRecord> pending_;  //!< staged by feed()
    std::deque<Slot> fetchBuf_;               //!< fetched, not dispatched
    std::deque<Slot> rob_;                    //!< dispatched, not retired
    std::uint64_t retiredCount_ = 0;  //!< rob_[seq - retiredCount_]
    std::uint64_t dispatchedCount_ = 0;
    /// The issue queue: dispatch seqs of Waiting ROB entries, program
    /// order. Entries leave at issue; retire never scans this.
    std::vector<std::uint64_t> iq_;
    std::vector<ReadyEntry> readyRing_;
    std::size_t ringMask_ = 0;
    std::vector<StoreEntry> storeQ_;
    std::vector<std::uint64_t> mshr_;         //!< miss completion cycles

    // Store-set predictor state: the SSIT maps pc -> set id (0 =
    // untrained). A load whose set matches an older undrained
    // store's set waits; the store queue itself plays the LFST role
    // (the blocker scan already names the precise in-flight store).
    std::vector<std::uint32_t> ssit_;
    std::uint32_t nextSet_ = 0;
    std::uint64_t memOrderReplays_ = 0;

    // Fetch redirection state.
    std::uint64_t fetchStallUntil_ = 0;
    std::uint64_t haltBranchId_ = 0;
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
    int classLatency(trace::InstrClass cls) const;
};

} // namespace uasim::timing

#endif // UASIM_TIMING_OOO_PIPELINE_HH
