/**
 * @file
 * SweepPlan / SweepRunner: the declarative record-once/replay-many
 * experiment grid.
 *
 * A plan names a set of trace jobs (anything that can emit an
 * address-normalized record stream: a KernelBench variant, a custom
 * strategy loop, a decoder-stage microbenchmark) and a set of core
 * configurations, plus the cells of the grid to evaluate. The runner
 * records each referenced trace exactly once (keyed cache), replays
 * it into all of the trace's timing cells with one pass of the timing
 * engine (timing::BatchedPipelineSim, one cell per config, each
 * following its own CoreConfig::model), and spreads the trace groups
 * over a thread pool. Results land in cell order regardless of
 * scheduling, so reports are byte-identical from 1 thread to N.
 *
 * With a persistent store attached (attachStore), "once" extends
 * across processes: each cacheable trace job probes the store first,
 * replays from disk on a hit, and writes its recording to disk on a
 * miss, so repeated grid invocations warm-start instead of
 * re-emulating. Either way the replay decodes the same UATRACE3
 * payload bytes.
 *
 * Exactness: replaying a recorded trace into the engine is
 * bit-identical to streaming the emulation straight into it
 * (KernelBench::simulate; tests/sweep_test.cc locks this), so a sweep
 * produces exactly the simulated cycles the hand-rolled per-cell
 * loops did - it just emulates each unique trace once instead of once
 * per cell. The engine is in the determinism scope (core/determinism.hh): a
 * wall-clock read, random number or unordered container in it or in
 * this header does not compile; the *Seconds stats read
 * core::WallClock.
 */

#ifndef UASIM_CORE_SWEEP_HH
#define UASIM_CORE_SWEEP_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "timing/config.hh"
#include "timing/results.hh"
#include "trace/mix.hh"
#include "trace/sink.hh"
#include "trace/trace_store.hh"

namespace uasim::core {

/**
 * One recordable workload. @p record must be self-contained and
 * deterministic: it builds its own emulation state (planes and an
 * Emitter that maps addresses through its AddrNormalizer) and emits
 * the normalized records straight into the sink, so the runner can
 * invoke it from any worker thread.
 */
struct TraceJob {
    std::string key;  //!< unique identity; the trace-cache key
    std::function<void(trace::TraceSink &)> record;
    /**
     * Whether the persistent trace store may serve this job. Must be
     * false for jobs whose value is a side effect of running @p
     * record (e.g. filling a captured stats slot) rather than the
     * emitted record stream - a store hit replays the stream from
     * disk and never invokes @p record. The key of a cacheable job
     * must encode everything the stream depends on (workload sizes,
     * seeds, warmup history), because entries outlive the process.
     */
    bool cacheable = true;
};

/// One timing configuration of the grid.
struct ConfigJob {
    std::string label;
    timing::CoreConfig cfg;
};

/**
 * One grid point: simulate trace @p trace on configuration
 * @p config, or - with config == mixOnly - just record the trace's
 * instruction mix (a Table III style cell).
 */
struct SweepCell {
    static constexpr int mixOnly = -1;

    int trace = 0;
    int config = mixOnly;
};

/// Declarative sweep description.
class SweepPlan
{
  public:
    /**
     * Register a trace job; jobs with a key already in the plan are
     * deduplicated (the trace cache key), so callers can mechanically
     * re-add the same workload per grid axis.
     * @return the trace index for addCell().
     */
    int addTrace(TraceJob job);

    /// Register a core configuration. @return its index.
    int addConfig(std::string label, timing::CoreConfig cfg);

    /// Add one grid point (config index, or SweepCell::mixOnly).
    void addCell(int trace, int config);

    /// Add the full traces x configs cross product.
    void crossProduct();

    const std::vector<TraceJob> &traces() const { return traces_; }
    const std::vector<ConfigJob> &configs() const { return configs_; }
    const std::vector<SweepCell> &cells() const { return cells_; }

  private:
    std::vector<TraceJob> traces_;
    std::vector<ConfigJob> configs_;
    std::vector<SweepCell> cells_;
    std::map<std::string, int> traceIndex_;  //!< key -> trace index
};

/// Outcome of one grid point, in plan cell order.
struct SweepCellResult {
    std::string traceKey;
    std::string configLabel;  //!< empty for mix-only cells
    timing::SimResult sim;    //!< zeroed for mix-only cells
    trace::InstrMix mix;      //!< mix of the recorded trace
    std::uint64_t traceInstrs = 0;
};

/**
 * Aggregate runner statistics (for BENCH_*.json artifacts).
 *
 * Invariants, independent of thread count and of whether a trace came
 * from the store: every unique trace is obtained exactly once - by
 * emulation (counted in tracesRecorded/instrsRecorded) or from the
 * persistent store (tracesLoaded/instrsLoaded) - and instrsReplayed
 * is the summed trace length over all timing cells. Without a store,
 * tracesLoaded and tracesStored are zero and tracesRecorded covers
 * every trace. Time is split by pass kind: record passes
 * (recordSeconds), replay passes - each decoding the group's encoded
 * payload, just recorded or read from a store entry (replaySeconds) -
 * and mix-only summary reads from the store (loadSeconds).
 *
 * Every member has one row in core::sweepStatsFields()
 * (core/result.hh), which serializes, parses, gates and merges it; a
 * member without a row does not compile.
 */
struct SweepStats {
    /// Group workers of the run: min(threads, trace groups), at
    /// least 1 (informational).
    int threads = 0;
    std::uint64_t tracesRecorded = 0;  //!< traces obtained by emulation
    std::uint64_t tracesLoaded = 0;    //!< traces replayed from the store
    std::uint64_t tracesStored = 0;    //!< entries written to the store
    std::uint64_t cellsRun = 0;
    std::uint64_t instrsRecorded = 0;  //!< emulated records, all traces
    std::uint64_t instrsLoaded = 0;    //!< records read from the store
    std::uint64_t instrsReplayed = 0;  //!< records fed to timing sims
    /**
     * Batched replay passes that fed timing simulators. Each timing
     * group runs a first pass, and a second one when some of its
     * "ooo" cells cannot copy their pipeline twin (see twinCopies).
     * Mix-only groups contribute none. Independent of the thread
     * count; informational.
     */
    std::uint64_t replayPasses = 0;
    /**
     * Timing cells the engine actually simulated. A group's cells whose
     * configs canonicalize equal for its trace (timing::canonicalConfig:
     * exact duplicates, or configs that differ only in fields the
     * trace or the cell's model never reads) run once and the result is
     * copied to each of them, so this is at most the group's timing
     * cell count. Informational; cellsRun and instrsReplayed keep
     * counting logical cells.
     */
    std::uint64_t cellsSimulated = 0;
    /**
     * Distinct "ooo" configs not simulated because their pipeline twin
     * (timing::pipelineTwin) in the same group ran with no load
     * blocked on an older store: the twin's result is copied instead.
     * Counted like cellsSimulated, per distinct canonical config.
     * Informational.
     */
    std::uint64_t twinCopies = 0;
    /**
     * Engine work summed over the simulated cells
     * (timing::BatchedPipelineSim::CellWork): load issue attempts that
     * found a blocking older store, cycles stepped one by one, and
     * cycles skipped by the idle-cycle jump. Deterministic at any
     * thread count; informational.
     */
    std::uint64_t blockedLoads = 0;
    std::uint64_t executedCycles = 0;
    std::uint64_t idleJumpedCycles = 0;
    /**
     * Issue-stage work summed over the simulated cells, one field per
     * CellWork counter: tryIssue attempts, the check that failed each
     * failed one (issueAttempts = simulated instrs + the five *Waits),
     * waiting-list visits skipped on a cached wake bound, and
     * watcher-overflow flushes. Deterministic; informational.
     */
    std::uint64_t issueAttempts = 0;
    std::uint64_t producerWaits = 0;
    std::uint64_t tokenWaits = 0;
    std::uint64_t portWaits = 0;
    std::uint64_t storeWaits = 0;
    std::uint64_t mshrWaits = 0;
    std::uint64_t wakeSkips = 0;
    std::uint64_t watcherFlushes = 0;
    /**
     * Encoded UATRACE3 payload bytes run through the block decoder,
     * summed over every replay pass: each pass decodes its group's
     * whole payload, whether it came from the store or was just
     * recorded, with or without a store. Independent of the thread
     * count; informational.
     */
    std::uint64_t decodeBytes = 0;
    double recordSeconds = 0;  //!< pure record passes, summed across workers
    double replaySeconds = 0;  //!< replay passes, summed across workers
    double loadSeconds = 0;    //!< mix-only store reads, summed across workers
    /// Time inside TraceCursor::nextBlock during replay, summed
    /// across workers (a subset of replaySeconds).
    double decodeSeconds = 0;
    double wallSeconds = 0;
};

/**
 * Executes a SweepPlan.
 *
 * Work unit = one trace group (a trace plus all cells that reference
 * it): the worker obtains the trace's encoded payload once - a store
 * entry on a hit, else a recording into a trace::EncodedTrace (whose
 * bytes become the store entry on a miss) - replays it into every
 * cell's simulator through one TraceCursor per pass, frees it, and
 * moves on. Store hits, misses and storeless runs share that one
 * replay path. Groups are handed to the pool's min(threads, groups)
 * workers through an atomic cursor, and each pass runs on its
 * group's worker; results are written into preallocated cell slots,
 * so output order is deterministic and thread-count independent.
 *
 * Before replay, each timing cell's config is validated and then
 * canonicalized against the group's instruction mix
 * (timing::canonicalConfig); cells with equal canonical configs are
 * simulated once and share the result, each keeping its own
 * SimResult::core. An "ooo" config whose pipeline twin is also in the
 * group copies the twin's result when no load of the twin blocked on
 * an older store, and is simulated in a second pass otherwise.
 */
class SweepRunner
{
  public:
    /// @param threads worker count; 0 = hardware concurrency.
    explicit SweepRunner(int threads = 0);

    /**
     * Attach a persistent trace store under @p dir (creating it if
     * needed). Cacheable trace jobs then probe the store before
     * recording: a hit replays the stored stream into every cell of
     * the group with zero re-emulation, a miss records through to
     * disk for the next run. Replayed results are bit-identical to
     * in-memory recording (tests/sweep_test.cc locks the disk path
     * too).
     * @throws std::runtime_error if the directory cannot be created.
     */
    void attachStore(const std::string &dir);

    /// The attached store, or nullptr.
    trace::TraceStore *store() const { return store_.get(); }

    /**
     * Force every timing cell onto one backend ("pipeline", "ooo";
     * see timing::timingModelNames). Applied as an override of
     * CoreConfig::model when the runner copies each cell's config, so
     * plans keep encoding the paper grid and the backend stays a
     * run-time axis. Empty (the default) leaves each config's own
     * model field in charge. An unknown name surfaces as
     * std::invalid_argument from the engine's constructor when run()
     * reaches the first timing cell.
     */
    void setTimingModel(std::string model)
    {
        timingModel_ = std::move(model);
    }

    /**
     * Per-trace completion callback: invoked on the worker thread that
     * ran trace @p trace's group, once every cell referencing it holds
     * its final result in @p results (the run's cell-ordered result
     * vector; slots of other groups may still be in flight and must
     * not be read). An exception thrown here fails the run like any
     * group failure.
     */
    using GroupDone = std::function<void(
        int trace, const std::vector<SweepCellResult> &results)>;

    /// Run the plan, calling @p onGroupDone (if set) as each trace
    /// group completes. @return per-cell results in plan cell order.
    std::vector<SweepCellResult> run(const SweepPlan &plan,
                                     const GroupDone &onGroupDone = {});

    /// Statistics of the most recent run().
    const SweepStats &stats() const { return stats_; }

    int threads() const { return threads_; }

    /**
     * Test-only seam: run() calls @p hook with each pool thread's
     * index just before starting that thread, so a test can make the
     * k-th start throw as std::thread's constructor does when the
     * system refuses a thread. run() then stops and joins the workers
     * already started and rethrows. A run on one worker starts no
     * thread and never calls it.
     */
    void
    setThreadStartHook(std::function<void(int)> hook)
    {
        threadStartHook_ = std::move(hook);
    }

  private:
    int threads_;
    SweepStats stats_;
    std::unique_ptr<trace::TraceStore> store_;
    std::string timingModel_;  //!< backend override; empty = per-config
    std::function<void(int)> threadStartHook_;  //!< test-only
};

/**
 * TraceJob for @p execs executions of a paper kernel variant
 * (KernelBench::recordTrace on a freshly seeded bench; the key
 * encodes spec/variant/execs/seed and, when nonzero, warmupCalls).
 *
 * @p warmupCalls reproduces shared-bench measurement history: the
 * bench is first advanced by that many untraced calls of @p execs
 * executions each, so the recording matches the trace a hand-rolled
 * grid loop would have produced at that call position. Kernel outputs
 * are bit-exact across variants, so warming up with the job's own
 * variant reproduces the state of any interleaved-variant history of
 * the same call count. Only needed when
 * KernelSpec::traceStateInvariant(variant) is false.
 */
TraceJob kernelTraceJob(const KernelSpec &spec, h264::Variant variant,
                        int execs, std::uint64_t seed = 12345,
                        int warmupCalls = 0);

} // namespace uasim::core

#endif // UASIM_CORE_SWEEP_HH
