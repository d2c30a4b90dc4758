#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>  // uasim-lint: allow(sim-determinism)
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "timing/model.hh"
#include "trace/trace_buffer.hh"

namespace uasim::core {

namespace {

// Wall-clock feeds only the *Seconds informational stats, never a
// simulated counter: the artifact differ ignores these fields.
using Clock = std::chrono::steady_clock;  // uasim-lint: allow(sim-determinism)

double
secondsSince(Clock::time_point start)
{
    // uasim-lint: allow(sim-determinism)
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Cells of one trace, prepartitioned (the runner's work unit).
struct TraceGroup {
    int trace = 0;
    std::vector<int> cellIndices;
};

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
SweepRunner::run(const SweepPlan &plan)
{
    const auto wallStart = Clock::now();
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

    struct WorkerTotals {
        std::uint64_t recorded = 0, loaded = 0, replayed = 0,
                      traces = 0, tracesLoaded = 0, tracesStored = 0,
                      cells = 0, replayPasses = 0, decodeBytes = 0,
                      bytesMapped = 0;
        double recordSec = 0, replaySec = 0, loadSec = 0,
               decodeSec = 0;
        int maxShards = 1;  //!< widest intra-group shard fan-out used

        void
        merge(const WorkerTotals &o)
        {
            recorded += o.recorded;
            loaded += o.loaded;
            replayed += o.replayed;
            traces += o.traces;
            tracesLoaded += o.tracesLoaded;
            tracesStored += o.tracesStored;
            cells += o.cells;
            replayPasses += o.replayPasses;
            decodeBytes += o.decodeBytes;
            bytesMapped += o.bytesMapped;
            recordSec += o.recordSec;
            replaySec += o.replaySec;
            loadSec += o.loadSec;
            decodeSec += o.decodeSec;
            maxShards = std::max(maxShards, o.maxShards);
        }
    };

    // Group workers: one per trace group, capped by the group count.
    // Thread budget the group level cannot use (fewer groups than
    // threads - the single-big-group shape) is spent *inside* the
    // groups as replay shards, so --threads N engages N workers
    // either way.
    const int poolSize =
        std::max(1, std::min<int>(threads_, int(groups.size())));
    const int shardBudget = std::max(1, threads_ / poolSize);

    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> abortRun{false};
    std::mutex totalsMutex;
    WorkerTotals totals;
    std::exception_ptr firstError;
    std::mutex errorMutex;

    auto worker = [&]() {
        WorkerTotals local;

        // Run fn(shard, shardTotals) on nShards shards: shard 0 on
        // this thread, the rest on short-lived threads. Shard totals
        // merge into the worker's only when every shard succeeded;
        // the first shard exception rethrows here with no partial
        // accounting, so a caller that falls back to re-recording
        // starts from a clean slate.
        auto runShards = [&local](int nShards, auto &&fn) {
            if (nShards <= 1) {
                fn(0, local);
                return;
            }
            std::vector<WorkerTotals> shardTotals(nShards);
            std::vector<std::exception_ptr> shardErrors(nShards);
            std::vector<std::thread> shardPool;
            shardPool.reserve(nShards - 1);
            for (int k = 1; k < nShards; ++k) {
                shardPool.emplace_back([&, k] {
                    try {
                        fn(k, shardTotals[k]);
                    } catch (...) {
                        shardErrors[k] = std::current_exception();
                    }
                });
            }
            try {
                fn(0, shardTotals[0]);
            } catch (...) {
                shardErrors[0] = std::current_exception();
            }
            for (auto &t : shardPool)
                t.join();
            for (auto &e : shardErrors) {
                if (e)
                    std::rethrow_exception(e);
            }
            for (const auto &st : shardTotals)
                local.merge(st);
            local.maxShards = std::max(local.maxShards, nShards);
        };

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

                // The group's timing cells, in plan order (the shard
                // split below partitions these contiguously, so the
                // result layout never depends on shard count).
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
                    timingCfgs.push_back(std::move(cfg));
                }
                const int timingCells = int(timingCis.size());

                trace::TraceStore *store =
                    (store_ && job.cacheable) ? store_.get() : nullptr;

                // Replay the group's records into every timing cell:
                // spare thread budget splits the cells contiguously
                // across shards, each running one batched model pass
                // that feed(model, shardTotals) fills with the whole
                // stream. Cells are mutually independent, so any split
                // fills identical results (tests/sweep_test.cc); only
                // pass count and wall time differ.
                auto replayCells = [&](std::uint64_t records, auto &&feed) {
                    const int nShards =
                        std::min<int>(shardBudget, timingCells);
                    const std::size_t cellsN = timingCis.size();
                    runShards(nShards, [&](int k, WorkerTotals &lt) {
                        const std::size_t lo =
                            cellsN * std::size_t(k) / nShards;
                        const std::size_t hi =
                            cellsN * std::size_t(k + 1) / nShards;
                        auto t0 = Clock::now();
                        auto batch = timing::makeBatchedTimingModel(
                            {timingCfgs.begin() + lo,
                             timingCfgs.begin() + hi});
                        feed(*batch, lt);
                        auto sims = batch->finalizeAll();
                        for (std::size_t i = lo; i < hi; ++i)
                            results[timingCis[i]].sim = std::move(sims[i - lo]);
                        lt.replaySec += secondsSince(t0);
                        lt.replayed += records * (hi - lo);
                        ++lt.replayPasses;
                    });
                };

                trace::InstrMix mix;
                bool fromStore = false;

                // Store probe, shaped per group kind so a hit never
                // materializes state the cells don't need: a mix-only
                // group reads just the header's validated mix section
                // (no payload decode at all); a timing group opens the
                // entry zero-copy (mmap where available) and every
                // replay shard decodes the shared payload through its
                // own TraceCursor. Replay equivalence keeps every hit
                // bit-identical to recording in-process. A payload
                // that fails mid-decode (valid checksum, corrupt
                // stream) is discarded like any corrupt entry and the
                // group falls through to re-recording, which
                // overwrites any partially filled result slots.
                if (store && timingCells == 0) {
                    auto t0 = Clock::now();
                    if (auto sum = store->loadSummary(job.key)) {
                        mix = sum->mix;
                        local.loadSec += secondsSince(t0);
                        local.loaded += sum->count;
                        ++local.tracesLoaded;
                        fromStore = true;
                    }
                } else if (store) {
                    if (auto reader = store->openReader(job.key)) {
                        // One independent decode pass per shard.
                        auto decode = [&](trace::TraceSink &model,
                                          WorkerTotals &lt) {
                            trace::TraceCursor cur = reader->cursor();
                            trace::InstrRecord block[1024];
                            for (;;) {
                                auto d0 = Clock::now();
                                const std::size_t got =
                                    cur.nextBlock(block, std::size(block));
                                lt.decodeSec += secondsSince(d0);
                                if (got == 0)
                                    break;
                                model.appendBlock(block, got);
                            }
                            lt.decodeBytes += reader->payloadBytes();
                        };
                        try {
                            replayCells(reader->count(), decode);
                            mix = reader->mix();
                            if (reader->mapped()) {
                                local.bytesMapped +=
                                    reader->payloadBytes();
                            }
                            local.loaded += reader->count();
                            ++local.tracesLoaded;
                            fromStore = true;
                        } catch (const std::exception &e) {
                            store->discardEntry(job.key, e.what());
                        }
                    }
                }

                if (!fromStore) {
                    // Record once: a mix-only group just counts, a
                    // timing group buffers the stream for its replay
                    // shards. On a store miss the recording tees into
                    // a write-through recorder; a failed store write
                    // degrades to an uncached run, never a failed
                    // sweep.
                    std::unique_ptr<trace::TraceStore::Recorder> recorder;
                    if (store)
                        recorder = store->startRecord(job.key);
                    trace::CountingSink counter;
                    trace::TraceBuffer buffer;
                    trace::TraceSink &sink = timingCells == 0
                        ? static_cast<trace::TraceSink &>(counter)
                        : buffer;
                    auto t0 = Clock::now();
                    if (recorder) {
                        trace::TeeSink tee(sink, *recorder);
                        job.record(tee);
                    } else {
                        job.record(sink);
                    }
                    mix = timingCells == 0 ? counter.mix() : buffer.mix();
                    local.recordSec += secondsSince(t0);
                    local.recorded += mix.total();
                    ++local.traces;
                    if (recorder) {
                        try {
                            recorder->commit();
                            ++local.tracesStored;
                        } catch (const std::exception &e) {
                            std::fprintf(stderr,
                                         "trace-store: cannot persist "
                                         "\"%s\": %s; continuing\n",
                                         job.key.c_str(), e.what());
                        }
                        recorder.reset();
                    }
                    if (timingCells > 0) {
                        replayCells(buffer.size(),
                                    [&](trace::TraceSink &model,
                                        WorkerTotals &) {
                                        buffer.replayInto(model);
                                    });
                    }
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
                    ++local.cells;
                }
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
        totals.merge(local);
    };

    if (poolSize <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(poolSize);
        for (int i = 0; i < poolSize; ++i)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    if (firstError)
        std::rethrow_exception(firstError);

    stats_.threads = poolSize * std::max(1, totals.maxShards);
    stats_.tracesRecorded = totals.traces;
    stats_.tracesLoaded = totals.tracesLoaded;
    stats_.tracesStored = totals.tracesStored;
    stats_.cellsRun = totals.cells;
    stats_.instrsRecorded = totals.recorded;
    stats_.instrsLoaded = totals.loaded;
    stats_.instrsReplayed = totals.replayed;
    stats_.replayPasses = totals.replayPasses;
    stats_.decodeBytes = totals.decodeBytes;
    stats_.bytesMapped = totals.bytesMapped;
    stats_.recordSeconds = totals.recordSec;
    stats_.replaySeconds = totals.replaySec;
    stats_.loadSeconds = totals.loadSec;
    stats_.decodeSeconds = totals.decodeSec;
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
