/**
 * @file
 * Batched multi-configuration replay: one decoded trace record
 * advances N independent timing-cell states in a single pass.
 *
 * A BatchedPipelineSim holds one machine state per CoreConfig of a
 * sweep group and consumes the instruction stream exactly once,
 * instead of one full replay per configuration. It is the only
 * production timing engine, for both backends: each cell derives its
 * behaviour from its own CoreConfig::model, so one group may mix
 * "pipeline" and "ooo" cells, and makeTimingModel() wraps the engine
 * as a one-cell model. Every cell's simulated counters are
 * bit-identical to feeding the same stream into the reference oracle
 * of its model with the same config - PipelineSim for "pipeline"
 * cells, OoOPipelineSim for "ooo" cells (tests/batched_replay_test.cc
 * is the differential harness that locks this cell for cell).
 *
 * The two backends differ per cell in three places only:
 *
 *  - **Issue order and width.** A "pipeline" cell issues out of order
 *    when cfg.outOfOrder is set, and otherwise near program order
 *    within cfg.inorderLookahead waiting slots; its issue width is
 *    cfg.fetchWidth. An "ooo" cell always issues out of order, under
 *    cfg.issueWidth (0 = fetchWidth).
 *  - **Store-to-load ordering.** A "pipeline" load always waits for
 *    an older overlapping store it cannot forward from. An "ooo" load
 *    consults a store-set predictor (Chrysos & Emer, simplified):
 *    when its SSIT set matches the blocking store's it waits;
 *    otherwise it speculates past the store, pays
 *    cfg.memReplayPenalty and trains the SSIT so the next instance of
 *    the pair waits. The store queue plays the LFST role.
 *  - Nothing else: fetch, dispatch, retire, the memory hierarchy and
 *    the predictor are shared code.
 *
 * SweepRunner relies on this list (docs/INVARIANTS.md, "Pipeline
 * twins"): an "ooo" cell whose issue width resolves to fetchWidth runs
 * exactly like a "pipeline" cell with cfg.outOfOrder until some load
 * finds an older overlapping store it cannot forward from, and each
 * cell counts those loads (CellWork::blockedLoads). The runner copies
 * an "ooo" cell's result from its pipeline twin (timing::pipelineTwin)
 * when the twin counted none. A new difference between the backends
 * must show in that counter, or the twin rule must go.
 *
 * Why it is faster than one oracle per cell, while staying
 * bit-identical:
 *
 *  - **Shared record window.** All cells consume the same records in
 *    the same order, and each cell's pending/fetch-buffer/ROB windows
 *    are contiguous ranges of that one sequence (fetch, dispatch and
 *    retire all pop from the front). So the stream is materialized
 *    once in a power-of-two window ring and each cell keeps three
 *    cursors into it, instead of copying every record through three
 *    std::deques per cell.
 *  - **Per-cell branch prediction at fetch.** Each cell predicts and
 *    trains its own gshare table (cfg.bpredLog2Entries) exactly once
 *    per branch, in fetch (= program) order, as both oracles do, and
 *    keeps the mispredict bit in the fetched slot. (The I-cache and
 *    data hierarchy are not shareable either - they couple through
 *    the unified L2, whose contents depend on per-cell issue timing -
 *    so each cell owns a full MemoryHierarchy.)
 *  - **Waiting-list issue scan.** PipelineSim's issue stage walks the
 *    whole ROB (up to cfg.inflight entries) every cycle even when
 *    almost all slots are already issued. Only Waiting slots can
 *    issue, tryIssue is side-effect-free for slots it is never called
 *    on, and dispatch bounds the waiting population by issueQ +
 *    branchQ - so the batch scans a compact ordered list of waiting
 *    slots (same slots, same order, same per-cycle token state:
 *    bit-identical decisions at a fraction of the memory traffic).
 *  - **Wakeup-cached issue attempts.** A failed tryIssue is pure, so
 *    skipping a retry that is certain to fail again is unobservable.
 *    When a slot is blocked on producers, the max producer ready
 *    cycle is a sound earliest-retry bound - sound *until* any of
 *    the dep's ready-ring entries is rewritten (a producer issuing,
 *    or an aliasing id overwriting the tagged slot, which makes the
 *    dep read as ready immediately). Every rewrite goes through
 *    setReady, so each cached bound registers its ROB slot as a
 *    watcher on the ring indices it read, and setReady zeroes the
 *    wake of exactly those watchers (push invalidation: one producer
 *    issuing wakes just its own consumers; a watcher-list overflow
 *    degrades to flushing every cached bound, which is always safe).
 *    Resource-blocked slots (tokens, ports, store queue) and
 *    store-set waits (the SSIT changes whenever another load issues)
 *    retry next cycle as before. Net effect: the oracles' ~16 failed
 *    issue attempts per cycle collapse to one integer compare each.
 *  - **Idle-cycle event jump.** Under long-latency stalls (an L2 or
 *    memory miss pins the ROB head for hundreds of cycles) most
 *    cycles move no cursor and issue nothing. After such a provably
 *    idle cycle every remaining blocker is time-driven, so the clock
 *    jumps to the earliest of head completion, store forward-ready,
 *    MSHR release, fetch-stall horizon and cached wake bounds,
 *    accruing the skipped fetch-stall cycles arithmetically. Any
 *    blocker that can clear without a timestamp leaves a wake bound
 *    of now + 1, which forbids the jump (see idleJump()).
 *
 * Field-table rule (core/result.hh): a counter added to SimResult
 * must be accumulated here as well as in both oracles (PipelineSim
 * and OoOPipelineSim), and batched_replay_test compares this engine
 * against the oracle of each cell's model over the full
 * simResultFields() table - a counter wired into only one engine
 * fails the harness instead of silently diverging.
 */

#ifndef UASIM_TIMING_BATCHED_PIPELINE_HH
#define UASIM_TIMING_BATCHED_PIPELINE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mem/hierarchy.hh"
#include "timing/branch_pred.hh"
#include "timing/config.hh"
#include "timing/results.hh"
#include "trace/sink.hh"

namespace uasim::timing {

class BatchedPipelineSim : public trace::TraceSink
{
  public:
    /**
     * One machine state per entry of @p cfgs (duplicates allowed;
     * every cell is simulated independently; models and predictor
     * sizes may differ from cell to cell).
     * @throws std::invalid_argument on an invalid config or an
     * unknown model name.
     */
    explicit BatchedPipelineSim(const std::vector<CoreConfig> &cfgs);

    /// TraceSink hook: feed one record to every cell.
    void append(const trace::InstrRecord &rec) override;

    /// Feed a decoded block to every cell, cell-major per chunk so a
    /// cell's working state stays cache-hot across the whole chunk.
    void appendBlock(const trace::InstrRecord *recs,
                     std::size_t n) override;

    /**
     * Drain every cell and return per-cell results, in constructor
     * config order. Idempotent.
     */
    std::vector<SimResult> finalizeAll();

    int cellCount() const { return int(cells_.size()); }

    /**
     * Deterministic work counters of one cell: how the engine reached
     * its SimResult, not part of it (the oracles have no counterpart).
     * executedCycles + idleJumpedCycles is the cell's cycles.
     */
    struct CellWork {
        /// Load issue attempts that found an older overlapping store
        /// the load could not forward from - the one point where a
        /// "pipeline" and an "ooo" cell part.
        std::uint64_t blockedLoads = 0;
        std::uint64_t executedCycles = 0;    //!< cycles stepped one by one
        std::uint64_t idleJumpedCycles = 0;  //!< cycles skipped by idleJump
        /// tryIssue calls. Each one issues or fails on exactly one of
        /// the five checks below, so issueAttempts is the cell's
        /// instrs plus the five *Waits.
        std::uint64_t issueAttempts = 0;
        std::uint64_t producerWaits = 0;  //!< a producer not yet ready
        std::uint64_t tokenWaits = 0;     //!< no token left on the unit
        /// No read port, or no second one for a line-crossing load.
        std::uint64_t portWaits = 0;
        /// An older overlapping store: the "pipeline" wait, or an
        /// "ooo" load waiting on its trained store set.
        std::uint64_t storeWaits = 0;
        std::uint64_t mshrWaits = 0;  //!< a missing load, MSHR file full
        /// Waiting-list scan visits skipped on a cached wake bound
        /// (issueStage visits = issueAttempts + wakeSkips).
        std::uint64_t wakeSkips = 0;
        /// setReady calls that dropped every cached wake bound of the
        /// cell after a watcher-list overflow.
        std::uint64_t watcherFlushes = 0;
    };

    /// Work counters of cell @p i (constructor config order); set
    /// by finalizeAll().
    const CellWork &work(int i) const { return cells_[std::size_t(i)].work; }

  private:
    enum class State : std::uint8_t { Waiting, Issued };

    /// Per-cell view of one in-flight record (the record itself lives
    /// once in the shared window).
    struct Slot {
        std::uint64_t readyCycle = 0;
        /// Cached earliest-retry cycle while Waiting. 0 = no cached
        /// bound, run the real checks; notReady = blocked until a
        /// watched ready-ring index is rewritten (setReady zeroes
        /// this through the watcher list); wakeMshrFull = see below.
        std::uint64_t wake = 0;
        State state = State::Waiting;
        bool mispredict = false;  //!< set at fetch by the cell's gshare
    };

    struct StoreEntry {
        std::uint64_t id = 0;
        std::uint64_t pc = 0;  //!< store-set lookup key ("ooo" cells)
        std::uint64_t addr = 0;
        std::uint64_t fwdReady = 0;
        unsigned size = 0;
        bool issued = false;
    };

    struct ReadyEntry {
        std::uint64_t id = 0;
        std::uint64_t cycle = 0;
    };

    /// Watcher list of one ready-ring index: the ROB seqs whose
    /// cached wake bound must be dropped when the index is rewritten.
    /// Sized for an in-flight fan-out of 3 consumers; beyond that the
    /// overflow flag makes the next rewrite flush every cached bound
    /// of the cell (always safe, just slower).
    struct RingWatch {
        std::array<std::uint64_t, 3> seq{};
        std::uint8_t n = 0;
        bool overflow = false;
    };

    /**
     * One independent machine. Its pending / fetch-buffer / ROB
     * contents are the contiguous record ranges [fetchPos, fed),
     * [dispatchPos, fetchPos) and [retirePos, dispatchPos) of the
     * shared sequence.
     */
    struct Cell {
        explicit Cell(const CoreConfig &config);

        CoreConfig cfg;
        mem::MemoryHierarchy mem;
        BranchPredictor bpred;

        bool ooo = false;         //!< cfg.model == "ooo"
        bool outOfOrder = false;  //!< ooo || cfg.outOfOrder
        int issueWidth = 1;       //!< resolved per-cycle issue budget

        std::uint64_t now = 0;
        std::uint64_t fed = 0;        //!< records fed to this cell
        std::uint64_t fetchPos = 0;   //!< first un-fetched record
        std::uint64_t dispatchPos = 0;
        std::uint64_t retirePos = 0;
        std::size_t pendingCap = 0;   //!< 2 * cfg.ibuffer (feed rule)

        std::vector<Slot> slots;      //!< ring over [retirePos, fetchPos)
        std::size_t slotMask = 0;
        std::vector<ReadyEntry> readyRing;
        std::size_t ringMask = 0;
        std::vector<StoreEntry> storeQ;
        std::vector<std::uint64_t> mshr;
        /// Seqs of Waiting ROB slots, in ROB (= program) order.
        std::vector<std::uint64_t> waiting;
        /// Per-ready-ring-index watcher lists for push invalidation
        /// of cached wake bounds.
        std::vector<RingWatch> ringWatch;

        /// Store-set predictor of an "ooo" cell: the SSIT maps pc ->
        /// set id (0 = untrained); empty for "pipeline" cells.
        std::vector<std::uint32_t> ssit;
        std::uint32_t nextSet = 0;

        std::uint64_t fetchStallUntil = 0;
        std::uint64_t haltBranchId = 0;
        std::uint64_t lastFetchLine = ~std::uint64_t{0};

        int gprInflight = 0;
        int fprInflight = 0;
        int vprInflight = 0;
        int waitingNonBranch = 0;
        int waitingBranch = 0;

        int unitTokens[numUnits] = {};
        int readPorts = 0;
        int writePorts = 0;
        int issueTokens = 0;

        SimResult res;
        CellWork work;

        int renameLimit(RegFile rf) const;
        int *renameCounter(RegFile rf);
        int classLatency(trace::InstrClass cls) const;

        std::size_t
        ssitIndex(std::uint64_t pc) const
        {
            return std::size_t(pc >> 2) & (ssit.size() - 1);
        }

        /// Record a load/store ordering violation: merge both PCs into
        /// one store set (ids cycle through [1, ssit.size())) so the
        /// next instance of the pair waits.
        void trainStoreSet(std::uint64_t loadPc, std::uint64_t storePc);

        std::uint64_t
        readyCycleOf(std::uint64_t id) const
        {
            if (!id)
                return 0;
            const auto &e = readyRing[id & ringMask];
            return e.id == id ? e.cycle : 0;
        }

        void
        setReady(std::uint64_t id, std::uint64_t cycle)
        {
            const auto idx = id & ringMask;
            auto &e = readyRing[idx];
            e.id = id;
            e.cycle = cycle;
            RingWatch &wt = ringWatch[idx];
            if (wt.overflow) {
                // A past registration did not fit: conservatively
                // drop every cached bound (a zero wake only forces a
                // re-run of the real checks, never a wrong skip).
                ++work.watcherFlushes;
                for (auto s : waiting)
                    slots[s & slotMask].wake = 0;
                wt.overflow = false;
                wt.n = 0;
            } else if (wt.n) {
                // A stale watcher (its slot issued, retired or was
                // reused since) at worst re-zeroes a reused slot's
                // wake - also just a forced recheck.
                for (std::uint8_t k = 0; k < wt.n; ++k)
                    slots[wt.seq[k] & slotMask].wake = 0;
                wt.n = 0;
            }
        }

        /// Register @p seq's cached wake bound as depending on
        /// producer id @p d's ready-ring index.
        void
        watchDep(std::uint64_t d, std::uint64_t seq)
        {
            RingWatch &wt = ringWatch[d & ringMask];
            for (std::uint8_t k = 0; k < wt.n; ++k) {
                if (wt.seq[k] == seq)
                    return;
            }
            if (wt.n < wt.seq.size())
                wt.seq[wt.n++] = seq;
            else
                wt.overflow = true;
        }
    };

    static constexpr std::uint64_t notReady = ~std::uint64_t{0};

    /// Wake sentinel for a load blocked only by a full MSHR file: it
    /// must re-run the real checks every executed cycle (another
    /// access can bring its line in, removing the miss), but during a
    /// provably idle window the cache cannot change, so the block
    /// provably holds until the earliest MSHR release - which is
    /// already an idleJump candidate, so the sentinel simply does not
    /// veto the jump the way a now + 1 bound does. Not used for an
    /// "ooo" load that speculated past a blocker: that blocker can
    /// become a forwarder at its fwdReady, which is no jump candidate.
    static constexpr std::uint64_t wakeMshrFull = ~std::uint64_t{0} - 1;

    /// Same floor as PipelineSim::minRingSize: the producer-ready ring
    /// is bit_ceil(max(1024, 2 * inflight)) so id aliasing behaviour -
    /// part of the simulated semantics - matches the oracle exactly.
    static constexpr std::size_t minRingSize = 1024;

    /// appendBlock chunk size; the shared window is sized so a whole
    /// chunk can be staged past the laggiest cell's retire cursor.
    static constexpr std::size_t chunkRecords = 256;

    const trace::InstrRecord &
    winRec(std::uint64_t seq) const
    {
        return window_[seq & winMask_];
    }

    void advanceCell(Cell &cell, std::uint64_t fedEnd);

    void cycleCell(Cell &cell);
    void idleJump(Cell &cell);
    void retireStage(Cell &cell);
    void issueStage(Cell &cell);
    void dispatchStage(Cell &cell);
    void fetchStage(Cell &cell);
    bool tryIssue(Cell &cell, std::uint64_t seq);

    std::vector<trace::InstrRecord> window_;  //!< shared record ring
    std::size_t winMask_ = 0;
    std::uint64_t feedSeq_ = 0;  //!< total records appended

    std::vector<Cell> cells_;
    bool finalized_ = false;
};

} // namespace uasim::timing

#endif // UASIM_TIMING_BATCHED_PIPELINE_HH
