/**
 * @file
 * The timing engine: trace replay of the paper's cores. One decoded
 * trace record advances N independent timing-cell states in a single
 * pass.
 *
 * A BatchedPipelineSim holds one machine state per CoreConfig of a
 * sweep group and consumes the instruction stream exactly once,
 * instead of one full replay per configuration. It consumes an
 * address-normalized InstrRecord stream - it is a TraceSink, so
 * emulation, trace buffers and the persistent store all feed it the
 * same way - and produces one SimResult per cell: the
 * simResultFields() counter table of core/result.hh. It is the only
 * timing code in the library. Everything above it (SweepRunner, the
 * benches, bench_util's shared flags) selects a backend through
 * CoreConfig::model (timingModelNames()), never by naming a
 * simulator class. Each cell follows its own model, so one group
 * may mix backends and predictor sizes:
 *
 *   "pipeline"  the Turandot-like in-flight-window model of the
 *               paper's Table II runs (in-order issue with a bounded
 *               lookahead unless CoreConfig::outOfOrder; every
 *               aliasing load waits for the older store).
 *   "ooo"       an always-out-of-order core with a decoupled issue
 *               width (CoreConfig::issueWidth) and a store-set
 *               memory-dependence predictor.
 *
 * Every cell's simulated counters are bit-identical to feeding the
 * same stream into the reference oracle of its model with the same
 * config - PipelineSim for "pipeline" cells, OoOPipelineSim for "ooo"
 * cells. The oracles are straightforward test-only simulators
 * (tests/oracles/, the uasim_oracles library), and
 * tests/batched_replay_test.cc is the differential harness that locks
 * this cell for cell.
 *
 * Stream-pure invariants shared by both backends: the fetch stage
 * predicts and trains the branch predictor exactly once per branch,
 * in program order, so instruction counts, branch counts, mispredict
 * bits and unaligned-op counts are pure functions of the stream -
 * identical across backends while cycle timing differs
 * (tests/timing_model_test.cc is the cross-model differential
 * harness).
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
 *  - **Event-driven issue wakeup.** A failed tryIssue is pure, so
 *    skipping a retry that is certain to fail again is unobservable.
 *    A slot's producer bound - the max ready cycle of its deps - is
 *    computed when it dispatches and again whenever that answer can
 *    change, never by a failing retry (the wakeup/select split of
 *    real schedulers). A producer's ready-ring entry changes only in
 *    setReady: the producer issuing, or another id taking the entry
 *    over, which makes the dep read as ready. A slot waiting on a
 *    producer that has not issued registers as a watcher on that
 *    producer's ring index, and setReady recomputes exactly those
 *    watchers' bounds; a finite bound needs no watch, because an
 *    issued producer's entry changes hands only after it completed
 *    (once the ring wraps, at every dispatch) - unless ids far apart
 *    alias it while in flight, which drops every bound of the cell,
 *    as a watcher-list overflow does; a zero bound only forces a
 *    re-run of the real checks. A met bound stays met, since ready
 *    cycles never move later: tryIssue re-runs the producer check
 *    only on a zero bound. The one exception, again only for ids far
 *    apart, is a producer issuing after an aliasing id took its
 *    entry, which its consumers read as ready meanwhile; that
 *    setReady drops every bound too. Every unissued slot stays on
 *    the waiting list in ROB order, and a visit to one whose bound has
 *    not come costs one compare. A consumer that a producer issuing
 *    this cycle makes issuable at once (a zero-latency producer) is
 *    younger than it, so the running scan reaches it later in the same
 *    cycle, as the oracle's walk does; an older slot whose bound a drop
 *    reopens waits for the next cycle, as it does in the walk.
 *    Resource-blocked slots (tokens, ports, store queue, MSHR file)
 *    and store-set waits (the SSIT changes whenever another load
 *    issues) are retried on every executed cycle. Net effect: the
 *    oracles' ~16 failed issue attempts per cycle collapse to about
 *    three tryIssue calls per executed cycle, the rest of the scan
 *    one compare per slot.
 *  - **Idle-cycle event jump.** Under long-latency stalls (an L2 or
 *    memory miss pins the ROB head for hundreds of cycles) most
 *    cycles move no cursor and issue nothing. A failed issue attempt
 *    leaves an exact event cycle as its wake bound, or retry: re-run
 *    every executed cycle, but stable across idle cycles. So after a
 *    provably idle cycle the clock jumps to the earliest event (see
 *    idleJump()), accruing the skipped fetch-stall cycles
 *    arithmetically: a cycle is stepped only when it moves something
 *    or an event is due on the next one.
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

#include <algorithm>
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
     * @throws std::invalid_argument on a config CoreConfig::validate()
     * rejects, an unknown model name included.
     */
    explicit BatchedPipelineSim(const std::vector<CoreConfig> &cfgs);

    /// TraceSink hook: feed one record to every cell (input contract
    /// as appendBlock()).
    void append(const trace::InstrRecord &rec) override;

    /**
     * Feed a decoded block to every cell, cell-major per chunk so a
     * cell's working state stays cache-hot across the whole chunk.
     * @throws std::invalid_argument on a record whose id does not
     * exceed the previous record's, or with a dep not older than
     * itself (it could never issue). Nothing of the chunkRecords
     * chunk holding it is fed; the stream may go on from there.
     */
    void appendBlock(const trace::InstrRecord *recs,
                     std::size_t n) override;

    /**
     * Drain every cell and return per-cell results, in constructor
     * config order. Idempotent.
     */
    std::vector<SimResult> finalizeAll();

    /**
     * The one-cell form of finalizeAll(): the result of the only cell.
     * @throws std::logic_error unless cellCount() == 1.
     */
    SimResult finalize();

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
        std::uint64_t idleCycles = 0;  //!< executed, and no stage moved
        /// tryIssue calls. Each one issues or fails on exactly one of
        /// the five checks below, so issueAttempts is the cell's
        /// instrs plus the five *Waits.
        std::uint64_t issueAttempts = 0;
        /// tryIssue calls that ran the producer check: only those on
        /// an unknown bound (Slot::wake == 0, left by a flush or a
        /// watcher rewake). Informational, not a sixth outcome.
        std::uint64_t producerChecks = 0;
        /// A producer not yet ready. Dispatch and setReady keep
        /// producer bounds exact, so this counts attempts after a
        /// flush dropped the slot's bound.
        std::uint64_t producerWaits = 0;
        std::uint64_t tokenWaits = 0;     //!< no token left on the unit
        /// No read port, or no second one for a line-crossing load.
        std::uint64_t portWaits = 0;
        /// An older overlapping store: the "pipeline" wait, or an
        /// "ooo" load waiting on its trained store set.
        std::uint64_t storeWaits = 0;
        std::uint64_t mshrWaits = 0;  //!< a missing load, MSHR file full
        /// Waiting-list scan visits skipped on a wake bound (issueStage
        /// visits = issueAttempts + wakeSkips): to slots waiting on a
        /// producer that has not issued, or has not yet completed.
        std::uint64_t wakeSkips = 0;
        /// setReady calls that dropped every wake bound of the cell:
        /// a watcher-list overflow, an aliasing id taking over the
        /// entry of an issued producer still in flight, or an issuing
        /// id taking its entry back from another (never with dense
        /// ids: the ring holds at least twice the window).
        std::uint64_t watcherFlushes = 0;
    };

    /// Work counters of cell @p i (constructor config order); set
    /// by finalizeAll().
    const CellWork &work(int i) const { return cells_[std::size_t(i)].work; }

  private:
    /// Waiting from fetch until the slot issues.
    enum class State : std::uint8_t { Waiting, Issued };

    /// Per-cell view of one in-flight record (the record itself lives
    /// once in the shared window).
    struct Slot {
        std::uint64_t readyCycle = 0;
        /// Earliest cycle an unissued slot can issue. 0 = unknown, run
        /// every check, the producer check included; notReady = a
        /// producer (or, in a "pipeline" cell, the older store a load
        /// waits on) has not issued, and setReady recomputes the bound
        /// when it does; retry = re-run the checks every executed cycle
        /// (idle-stable, see idleJump); any other value = an exact
        /// event cycle (a producer's ready cycle, or a blocking store's
        /// fwdReady). Once retry or <= now, every producer was seen
        /// issued and ready, so tryIssue skips the producer check.
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

    /// Watcher list of one ready-ring index: the ROB seqs that wait
    /// on the index's owner while it has not issued, whose bounds are
    /// recomputed when the entry is next written (so a non-empty list
    /// means an unissued owner). Sized for an in-flight fan-out of 3
    /// consumers; beyond that the overflow flag makes the next write
    /// drop every wake bound of the cell (always safe, just slower).
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
        /// Earliest fwdReady, this issue scan, of a blocker that will
        /// turn into the forwarder of a retrying "ooo" load (notReady =
        /// none): the one time bound a retry wake hides.
        std::uint64_t retryWake = notReady;
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

        /// Latest ready cycle over @p rec's producers (notReady while
        /// one has not issued; a producer whose ring entry another id
        /// took over reads as ready), with slot @p seq registered as a
        /// watcher of each producer that has not issued.
        std::uint64_t
        watchProducers(const trace::InstrRecord &rec, std::uint64_t seq)
        {
            std::uint64_t bound = 0;
            for (auto d : rec.deps) {
                const std::uint64_t ready = readyCycleOf(d);
                if (ready == notReady)
                    watchDep(d, seq);
                bound = std::max(bound, ready);
            }
            return bound;
        }

        /// Register @p seq's wake bound as depending on producer id
        /// @p d's ready-ring index.
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

    /// Wake sentinel of a slot whose checks must re-run every executed
    /// cycle (see Slot::wake).
    static constexpr std::uint64_t retry = notReady - 1;

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

    void
    setReady(Cell &cell, std::uint64_t id, std::uint64_t cycle)
    {
        const auto idx = id & cell.ringMask;
        ReadyEntry &e = cell.readyRing[idx];
        // Another id taking the entry over makes its owner read as
        // ready. An owner that completed by now - the previous lap's,
        // at every dispatch once the ring wraps - read as ready
        // before, and one that has not issued has its waiting
        // consumers on the watcher list. Two cases, both reached only
        // by ids far apart, leave bounds nobody registered and drop
        // them all: an issued owner still in flight, whose ready cycle
        // bounds its consumers; and an issuing id that finds its entry
        // held by another, whose consumers may have met bounds that
        // read it as ready.
        const bool dropAll = e.id != id &&
            (cycle != notReady ||
             (e.cycle != notReady && e.cycle > cell.now));
        e.id = id;
        e.cycle = cycle;
        const RingWatch &wt = cell.ringWatch[idx];
        if (wt.n || wt.overflow || dropAll)
            wakeWatchers(cell, idx, dropAll);
    }

    void wakeWatchers(Cell &cell, std::size_t idx, bool dropAll);
    void rewake(Cell &cell, std::uint64_t seq);
    void dropWakes(Cell &cell);

    void cycleCell(Cell &cell);
    /// Waiting slots one issue scan examines at most: all of them, or
    /// an in-order cell's lookahead.
    static std::size_t scanLimit(const Cell &cell);
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
