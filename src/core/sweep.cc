#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/determinism.hh"
#include "core/field_table.hh"
#include "core/result.hh"
#include "timing/batched_pipeline.hh"
#include "trace/trace_io.hh"

namespace uasim::core {

namespace {

/// Cells of one trace, prepartitioned (the runner's work unit).
struct TraceGroup {
    int trace = 0;
    std::vector<int> cellIndices;
};

/// twinOf entry of a distinct config without a pipeline twin in its
/// group.
constexpr std::size_t noTwin = ~std::size_t{0};

using CellWork = timing::BatchedPipelineSim::CellWork;

/// One engine work counter and the SweepStats field it is summed into.
struct CellWorkRow {
    std::uint64_t CellWork::*member;
    std::uint64_t SweepStats::*total;
};

/// Every CellWork counter, each summed into its SweepStats namesake;
/// a counter without a row does not compile.
constexpr CellWorkRow cellWorkRows[] = {
    {&CellWork::blockedLoads, &SweepStats::blockedLoads},
    {&CellWork::executedCycles, &SweepStats::executedCycles},
    {&CellWork::idleJumpedCycles, &SweepStats::idleJumpedCycles},
    {&CellWork::idleCycles, &SweepStats::idleCycles},
    {&CellWork::issueAttempts, &SweepStats::issueAttempts},
    {&CellWork::producerChecks, &SweepStats::producerChecks},
    {&CellWork::producerWaits, &SweepStats::producerWaits},
    {&CellWork::tokenWaits, &SweepStats::tokenWaits},
    {&CellWork::portWaits, &SweepStats::portWaits},
    {&CellWork::storeWaits, &SweepStats::storeWaits},
    {&CellWork::mshrWaits, &SweepStats::mshrWaits},
    {&CellWork::wakeSkips, &SweepStats::wakeSkips},
    {&CellWork::watcherFlushes, &SweepStats::watcherFlushes},
};
static_assert(coversEveryMember<CellWork, cellWorkRows>());

/// Add every field of @p from into @p into, through the one
/// SweepStats table. Partial totals leave threads and wallSeconds 0:
/// run() sets both once at the end.
void
addStats(SweepStats &into, const SweepStats &from)
{
    for (const SweepStatsField &f : sweepStatsFields())
        std::visit([&](auto m) { into.*m += from.*m; }, f.member);
}

} // namespace

int
SweepPlan::addTrace(TraceJob job)
{
    auto [it, inserted] =
        traceIndex_.try_emplace(job.key, int(traces_.size()));
    if (inserted)
        traces_.push_back(std::move(job));
    return it->second;
}

int
SweepPlan::addConfig(std::string label, timing::CoreConfig cfg)
{
    configs_.push_back({std::move(label), std::move(cfg)});
    return int(configs_.size()) - 1;
}

void
SweepPlan::addCell(int trace, int config)
{
    cells_.push_back({trace, config});
}

void
SweepPlan::crossProduct()
{
    for (int t = 0; t < int(traces_.size()); ++t) {
        for (int c = 0; c < int(configs_.size()); ++c)
            addCell(t, c);
    }
}

SweepRunner::SweepRunner(int threads)
{
    if (threads <= 0) {
        threads = int(std::thread::hardware_concurrency());
        if (threads <= 0)
            threads = 1;
    }
    threads_ = threads;
}

void
SweepRunner::attachStore(const std::string &dir)
{
    store_ = std::make_unique<trace::TraceStore>(dir);
}

std::vector<SweepCellResult>
SweepRunner::run(const SweepPlan &plan, const GroupDone &onGroupDone)
{
    const auto wallStart = WallClock::now();
    stats_ = SweepStats{};

    // Partition cells into per-trace groups, preserving plan order
    // within each group.
    std::vector<TraceGroup> groups(plan.traces().size());
    for (int t = 0; t < int(groups.size()); ++t)
        groups[t].trace = t;
    for (int i = 0; i < int(plan.cells().size()); ++i)
        groups[plan.cells()[i].trace].cellIndices.push_back(i);
    std::erase_if(groups, [](const TraceGroup &g) {
        return g.cellIndices.empty();
    });

    std::vector<SweepCellResult> results(plan.cells().size());

    // Group workers: one per trace group, capped by the group count.
    const int poolSize =
        std::max(1, std::min<int>(threads_, int(groups.size())));

    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> abortRun{false};
    // Groups and workers each accumulate a SweepStats of their own.
    std::mutex totalsMutex;
    SweepStats totals;
    std::exception_ptr firstError;
    std::mutex errorMutex;

    auto worker = [&]() {
        SweepStats local;
        try {
            for (;;) {
                // Stop the whole pool at the first failure instead of
                // draining (and then discarding) the remaining groups.
                if (abortRun.load(std::memory_order_relaxed))
                    break;
                std::size_t gi =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (gi >= groups.size())
                    break;
                const TraceGroup &group = groups[gi];
                const TraceJob &job = plan.traces()[group.trace];

                // The group's timing cells, in plan order.
                std::vector<int> timingCis;
                std::vector<timing::CoreConfig> timingCfgs;
                for (int ci : group.cellIndices) {
                    const SweepCell &cell = plan.cells()[ci];
                    if (cell.config == SweepCell::mixOnly)
                        continue;
                    timingCis.push_back(ci);
                    timing::CoreConfig cfg =
                        plan.configs()[cell.config].cfg;
                    // The backend override is applied on the runner's
                    // private copy: the plan keeps describing the grid,
                    // the runner decides which model simulates it.
                    if (!timingModel_.empty())
                        cfg.model = timingModel_;
                    // Before canonicalization can reset (and so hide)
                    // an out-of-range field the trace never reads.
                    cfg.validate();
                    timingCfgs.push_back(std::move(cfg));
                }
                const int timingCells = int(timingCis.size());
                // replayCells' dedup state, sized here, before any
                // encoded trace exists: an allocation of its own that
                // lived across the replay could pin freed trace memory
                // in the heap and raise peak RSS. The canonical configs
                // are a copy: a store replay that fails falls back to
                // recording and canonicalizes the cells' own configs
                // again against the recorded mix. Per distinct config:
                // the distinct index of its pipeline twin (noTwin if
                // the group has none), the blocked-load count of a
                // simulated one, and one replay pass's worklist.
                std::vector<timing::CoreConfig> canonical(timingCfgs);
                std::vector<std::size_t> distinctOf(timingCis.size());
                std::vector<std::size_t> firstCellOf;
                firstCellOf.reserve(timingCis.size());
                std::vector<std::size_t> twinOf(timingCis.size());
                std::vector<std::uint64_t> blockedOf(timingCis.size());
                std::vector<std::size_t> passList;
                passList.reserve(timingCis.size());

                trace::TraceStore *store =
                    (store_ && job.cacheable) ? store_.get() : nullptr;

                // Replay the group's encoded trace, from the store or
                // just recorded, into every timing cell.
                // Cells whose configs canonicalize equal for this
                // trace's mix produce the same SimResult, so only the
                // distinct canonical configs are simulated and each
                // cell gets a copy under its own core name. An "ooo"
                // config whose pipeline twin (timing::pipelineTwin) is
                // among them waits for a second pass: it copies the
                // twin's result when no load blocked on an older store
                // in the twin, and is simulated otherwise. Each pass is
                // one batched model pass that decodes the whole stream
                // through its own copy of @p start. Totals reach the
                // worker's only once every pass succeeded, so a caller
                // that falls back to re-recording starts from a clean
                // slate.
                auto replayCells = [&](const trace::InstrMix &traceMix,
                                       const trace::TraceCursor &start) {
                    firstCellOf.clear();
                    {
                        auto less = [](const timing::CoreConfig *a,
                                       const timing::CoreConfig *b) {
                            return *a < *b;
                        };
                        std::map<const timing::CoreConfig *, std::size_t,
                                 decltype(less)>
                            index(less);
                        for (std::size_t i = 0; i < timingCfgs.size(); ++i) {
                            canonical[i] = timing::canonicalConfig(
                                timingCfgs[i], traceMix);
                            auto [it, inserted] = index.try_emplace(
                                &canonical[i], firstCellOf.size());
                            if (inserted)
                                firstCellOf.push_back(i);
                            distinctOf[i] = it->second;
                        }
                        // Pass 1: every distinct config but the "ooo"
                        // ones whose pipeline twin is in the group.
                        passList.clear();
                        for (std::size_t d = 0; d < firstCellOf.size(); ++d) {
                            twinOf[d] = noTwin;
                            const auto twin = timing::pipelineTwin(
                                canonical[firstCellOf[d]], traceMix);
                            if (twin) {
                                auto it = index.find(&*twin);
                                if (it != index.end())
                                    twinOf[d] = it->second;
                            }
                            if (twinOf[d] == noTwin)
                                passList.push_back(d);
                        }
                    }
                    // The result slot of distinct config d: its first
                    // cell's.
                    auto simOf = [&](std::size_t d) -> timing::SimResult & {
                        return results[timingCis[firstCellOf[d]]].sim;
                    };
                    SweepStats groupTotals;
                    // One replay pass over passList's distinct configs.
                    auto simulatePass = [&] {
                        auto t0 = WallClock::now();
                        auto batch = [&] {
                            // A temporary, freed before the replay (see
                            // above).
                            std::vector<timing::CoreConfig> cfgs;
                            cfgs.reserve(passList.size());
                            for (std::size_t d : passList)
                                cfgs.push_back(canonical[firstCellOf[d]]);
                            return timing::BatchedPipelineSim(cfgs);
                        }();
                        trace::TraceCursor cur = start;
                        trace::InstrRecord block[1024];
                        for (;;) {
                            auto d0 = WallClock::now();
                            const std::size_t got =
                                cur.nextBlock(block, std::size(block));
                            groupTotals.decodeSeconds += secondsSince(d0);
                            if (got == 0)
                                break;
                            batch.appendBlock(block, got);
                        }
                        groupTotals.decodeBytes += start.payloadBytes();
                        auto sims = batch.finalizeAll();
                        for (std::size_t p = 0; p < passList.size(); ++p) {
                            const std::size_t d = passList[p];
                            const auto &work = batch.work(int(p));
                            blockedOf[d] = work.blockedLoads;
                            for (const CellWorkRow &r : cellWorkRows)
                                groupTotals.*r.total += work.*r.member;
                            simOf(d) = std::move(sims[p]);
                        }
                        groupTotals.replaySeconds += secondsSince(t0);
                        groupTotals.cellsSimulated += passList.size();
                        ++groupTotals.replayPasses;
                    };
                    simulatePass();
                    // Pass 2: the "ooo" configs whose twin saw a load
                    // block; the others copy their twin.
                    passList.clear();
                    for (std::size_t d = 0; d < firstCellOf.size(); ++d) {
                        if (twinOf[d] == noTwin)
                            continue;
                        if (blockedOf[twinOf[d]] == 0) {
                            simOf(d) = simOf(twinOf[d]);
                            ++groupTotals.twinCopies;
                        } else {
                            passList.push_back(d);
                        }
                    }
                    if (!passList.empty())
                        simulatePass();
                    // Every cell: its distinct config's result under
                    // its own core name.
                    for (std::size_t i = 0; i < timingCis.size(); ++i) {
                        timing::SimResult &sim = results[timingCis[i]].sim;
                        if (i != firstCellOf[distinctOf[i]])
                            sim = simOf(distinctOf[i]);
                        sim.core = timingCfgs[i].name;
                    }
                    groupTotals.instrsReplayed +=
                        start.count() * timingCfgs.size();
                    addStats(local, groupTotals);
                };

                trace::InstrMix mix;
                bool fromStore = false;

                // Store probe, shaped per group kind so a hit never
                // materializes state the cells don't need: a mix-only
                // group reads just the header's validated mix section
                // (no payload decode at all); a timing group reads the
                // entry's payload once and replays it like a recorded
                // one. Replay equivalence keeps every hit bit-identical
                // to recording in-process. A payload that fails
                // mid-decode (valid checksum, corrupt stream) is
                // discarded like any corrupt entry and the group falls
                // through to re-recording, which overwrites any
                // partially filled result slots.
                if (store && timingCells == 0) {
                    auto t0 = WallClock::now();
                    if (auto sum = store->loadSummary(job.key)) {
                        mix = sum->mix;
                        local.loadSeconds += secondsSince(t0);
                        local.instrsLoaded += sum->count;
                        ++local.tracesLoaded;
                        fromStore = true;
                    }
                } else if (store) {
                    if (auto reader = store->openReader(job.key)) {
                        try {
                            mix = reader->mix();
                            replayCells(mix, reader->cursor());
                            local.instrsLoaded += reader->count();
                            ++local.tracesLoaded;
                            fromStore = true;
                        } catch (const std::exception &e) {
                            store->discardEntry(job.key, e.what());
                        }
                    }
                }

                if (!fromStore) {
                    // Record once, encoding each record at most once:
                    // a timing group encodes the stream in memory for
                    // its replay passes and, on a store miss,
                    // publishes those bytes as the entry; a mix-only
                    // group records straight into the store's
                    // recorder on a miss and just counts otherwise. A
                    // failed store write degrades to an uncached run,
                    // never a failed sweep.
                    trace::EncodedTrace encoded;
                    std::unique_ptr<trace::TraceStore::Recorder> recorder;
                    if (store && timingCells == 0)
                        recorder = store->startRecord(job.key);
                    auto t0 = WallClock::now();
                    if (timingCells > 0) {
                        job.record(encoded);
                        mix = encoded.mix();
                    } else if (recorder) {
                        job.record(*recorder);
                        mix = recorder->mix();
                    } else {
                        trace::CountingSink counter;
                        job.record(counter);
                        mix = counter.mix();
                    }
                    local.recordSeconds += secondsSince(t0);
                    local.instrsRecorded += mix.total();
                    ++local.tracesRecorded;
                    if (recorder || (store && timingCells > 0)) {
                        try {
                            if (recorder)
                                recorder->commit();
                            else
                                store->publish(job.key, encoded);
                            ++local.tracesStored;
                        } catch (const std::exception &e) {
                            std::fprintf(stderr,
                                         "trace-store: cannot persist "
                                         "\"%s\": %s; continuing\n",
                                         job.key.c_str(), e.what());
                        }
                    }
                    if (timingCells > 0)
                        replayCells(mix, encoded.cursor());
                }

                for (int ci : group.cellIndices) {
                    const SweepCell &cell = plan.cells()[ci];
                    auto &res = results[ci];
                    res.traceKey = job.key;
                    if (cell.config != SweepCell::mixOnly) {
                        res.configLabel =
                            plan.configs()[cell.config].label;
                    }
                    res.mix = mix;
                    res.traceInstrs = mix.total();
                    ++local.cellsRun;
                }
                if (onGroupDone)
                    onGroupDone(group.trace, results);
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
            abortRun.store(true, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> lock(totalsMutex);
        addStats(totals, local);
    };

    if (poolSize <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(poolSize);
        try {
            for (int i = 0; i < poolSize; ++i) {
                if (threadStartHook_)
                    threadStartHook_(i);
                pool.emplace_back(worker);
            }
        } catch (...) {
            // A thread that cannot start fails the run, but the
            // workers already started still reference this frame:
            // stop them at their next group and join them first.
            abortRun.store(true, std::memory_order_relaxed);
            for (auto &t : pool)
                t.join();
            throw;
        }
        for (auto &t : pool)
            t.join();
    }
    if (firstError)
        std::rethrow_exception(firstError);

    stats_ = totals;
    stats_.threads = poolSize;
    stats_.wallSeconds = secondsSince(wallStart);
    return results;
}

TraceJob
kernelTraceJob(const KernelSpec &spec, h264::Variant variant,
               int execs, std::uint64_t seed, int warmupCalls)
{
    std::string key = spec.name();
    key += '/';
    key += h264::variantName(variant);
    key += '/';
    key += std::to_string(execs);
    key += '/';
    key += std::to_string(seed);
    if (warmupCalls > 0) {
        key += "/w";
        key += std::to_string(warmupCalls);
    }
    return {std::move(key), [spec, variant, execs, seed, warmupCalls](
                                trace::TraceSink &sink) {
                KernelBench bench(spec, seed);
                for (int k = 0; k < warmupCalls; ++k)
                    bench.advanceState(variant, execs);
                bench.recordTrace(variant, execs, sink);
            }};
}

} // namespace uasim::core
