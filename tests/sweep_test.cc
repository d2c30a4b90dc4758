/**
 * @file
 * Locks the sweep engine's guarantees (core/sweep.hh):
 *  - replaying a recorded trace into PipelineSim is bit-identical to
 *    streaming the emulation into the model directly;
 *  - the runner's single- and multi-cell groups, cold and warm store,
 *    match one PipelineSim oracle per cell over the full counter
 *    table;
 *  - results and SweepStats cell/instruction counts are identical for
 *    1 and N worker threads;
 *  - duplicate addTrace keys dedupe to one recording;
 *  - a group with one timing cell still populates every mix-only cell
 *    and accounts its instructions as both recorded and replayed;
 *  - kernelTraceJob's warmupCalls reproduces shared-bench history;
 *  - with a persistent store attached, a warm run replays every
 *    cacheable trace from disk with zero re-emulation and results
 *    bit-identical to the in-memory path, corrupt entries (truncated,
 *    or checksum-valid with an undecodable record stream) fall back
 *    to re-recording and are rewritten valid, and non-cacheable jobs
 *    bypass the store.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/result.hh"
#include "core/sweep.hh"
#include "timing/pipeline.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_io.hh"
#include "trace/trace_store.hh"

using namespace uasim;
using core::KernelBench;
using core::KernelSpec;
using core::SweepCell;
using core::SweepPlan;
using core::SweepRunner;
using h264::KernelId;
using h264::Variant;

namespace {

/// Every counter of the shared field table (core/result.hh).
void
expectSimEqual(const timing::SimResult &a, const timing::SimResult &b)
{
    EXPECT_EQ(a.core, b.core);
    for (const auto &f : core::simResultFields())
        EXPECT_EQ(a.*(f.member), b.*(f.member)) << "counter " << f.name;
}

void
expectMixEqual(const trace::InstrMix &a, const trace::InstrMix &b)
{
    for (int c = 0; c < trace::numInstrClasses; ++c) {
        auto cls = static_cast<trace::InstrClass>(c);
        EXPECT_EQ(a.count(cls), b.count(cls));
    }
}

} // namespace

TEST(SweepReplay, BitIdenticalToDirectStreaming)
{
    const KernelSpec specs[] = {
        {KernelId::Sad, 16, false},
        {KernelId::Idct, 4, false},  // state-sensitive scalar path
    };
    const Variant variants[] = {Variant::Scalar, Variant::Unaligned};
    const int execs = 6;
    auto cfg = timing::CoreConfig::fourWayOoO();

    for (const auto &spec : specs) {
        for (auto variant : variants) {
            KernelBench direct(spec);
            auto want = direct.simulate(variant, cfg, execs);

            trace::TraceBuffer buf;
            KernelBench recorder(spec);
            recorder.recordTrace(variant, execs, buf);
            EXPECT_EQ(buf.size(), buf.mix().total());

            timing::PipelineSim sim(cfg);
            buf.replayInto(sim);
            expectSimEqual(want, sim.finalize());
        }
    }
}

TEST(SweepPlan, AddTraceDedupesKeys)
{
    SweepPlan plan;
    int recorded = 0;
    auto job = [&recorded](trace::TraceSink &) { ++recorded; };
    int a = plan.addTrace({"dup", job});
    int b = plan.addTrace({"dup", job});
    int c = plan.addTrace({"other", job});
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    ASSERT_EQ(plan.traces().size(), 2u);

    // Both cells reference the single deduped recording.
    plan.addCell(a, SweepCell::mixOnly);
    plan.addCell(b, SweepCell::mixOnly);
    SweepRunner runner(1);
    auto results = runner.run(plan);
    EXPECT_EQ(recorded, 1);
    EXPECT_EQ(runner.stats().tracesRecorded, 1u);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].traceKey, "dup");
    EXPECT_EQ(results[1].traceKey, "dup");
}

TEST(SweepRunner, ResultsAndStatsThreadCountInvariant)
{
    const KernelSpec specs[] = {
        {KernelId::Sad, 16, false},
        {KernelId::LumaMc, 8, false},
        {KernelId::Idct, 4, false},
    };
    const int execs = 4;

    auto makePlan = [&]() {
        SweepPlan plan;
        plan.addConfig("2w", timing::CoreConfig::twoWayInOrder());
        plan.addConfig("4w", timing::CoreConfig::fourWayOoO());
        for (const auto &spec : specs) {
            for (auto variant : {Variant::Altivec, Variant::Unaligned}) {
                int t = plan.addTrace(
                    core::kernelTraceJob(spec, variant, execs));
                plan.addCell(t, 0);
                plan.addCell(t, 1);
                plan.addCell(t, SweepCell::mixOnly);
            }
        }
        return plan;
    };

    auto planA = makePlan();
    auto planB = makePlan();
    SweepRunner one(1);
    SweepRunner four(4);
    auto a = one.run(planA);
    auto b = four.run(planB);
    EXPECT_EQ(one.threads(), 1);
    EXPECT_EQ(four.threads(), 4);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].traceKey, b[i].traceKey);
        EXPECT_EQ(a[i].configLabel, b[i].configLabel);
        EXPECT_EQ(a[i].traceInstrs, b[i].traceInstrs);
        expectSimEqual(a[i].sim, b[i].sim);
        expectMixEqual(a[i].mix, b[i].mix);
    }

    const auto &sa = one.stats();
    const auto &sb = four.stats();
    EXPECT_EQ(sa.threads, 1);
    EXPECT_GT(sb.threads, 1);
    EXPECT_EQ(sa.tracesRecorded, sb.tracesRecorded);
    EXPECT_EQ(sa.cellsRun, sb.cellsRun);
    EXPECT_EQ(sa.instrsRecorded, sb.instrsRecorded);
    EXPECT_EQ(sa.instrsReplayed, sb.instrsReplayed);
    EXPECT_EQ(sa.cellsRun, std::uint64_t(planA.cells().size()));
    EXPECT_EQ(sa.tracesRecorded,
              std::uint64_t(planA.traces().size()));
}

TEST(SweepRunner, SingleTimingCellGroupPopulatesAllCells)
{
    // One trace whose group mixes a single timing cell with mix-only
    // cells: the runner must fill every cell and count the trace's
    // instructions as both recorded and replayed.
    SweepPlan plan;
    int cfg = plan.addConfig("4w", timing::CoreConfig::fourWayOoO());
    const KernelSpec sad8{KernelId::Sad, 8, false};
    int t = plan.addTrace(
        core::kernelTraceJob(sad8, Variant::Unaligned, 4));
    plan.addCell(t, SweepCell::mixOnly);
    plan.addCell(t, cfg);
    plan.addCell(t, SweepCell::mixOnly);

    SweepRunner runner(1);
    auto results = runner.run(plan);
    ASSERT_EQ(results.size(), 3u);

    EXPECT_GT(results[1].sim.cycles, 0u);
    EXPECT_EQ(results[1].configLabel, "4w");
    for (const auto &cell : results) {
        EXPECT_FALSE(cell.traceKey.empty());
        EXPECT_GT(cell.mix.total(), 0u);
        EXPECT_EQ(cell.traceInstrs, results[1].traceInstrs);
        expectMixEqual(cell.mix, results[1].mix);
    }
    // Mix-only cells carry no simulation.
    EXPECT_EQ(results[0].sim.cycles, 0u);
    EXPECT_EQ(results[0].configLabel, "");
    EXPECT_EQ(results[2].sim.cycles, 0u);

    const auto &stats = runner.stats();
    EXPECT_EQ(stats.tracesRecorded, 1u);
    EXPECT_EQ(stats.cellsRun, 3u);
    EXPECT_EQ(stats.instrsRecorded, results[1].traceInstrs);
    EXPECT_EQ(stats.instrsReplayed, results[1].traceInstrs);

    // The one-cell result is the same one a two-cell group produces.
    SweepPlan buffered;
    int c2 = buffered.addConfig("4w",
                                timing::CoreConfig::fourWayOoO());
    int t2 = buffered.addTrace(
        core::kernelTraceJob(sad8, Variant::Unaligned, 4));
    buffered.addCell(t2, c2);
    buffered.addCell(t2, c2);  // two timing cells force the buffer
    SweepRunner bufRunner(1);
    auto bufResults = bufRunner.run(buffered);
    ASSERT_EQ(bufResults.size(), 2u);
    expectSimEqual(results[1].sim, bufResults[0].sim);
    expectSimEqual(bufResults[0].sim, bufResults[1].sim);
    EXPECT_EQ(bufRunner.stats().instrsReplayed,
              2 * bufResults[0].traceInstrs);
}

namespace {

/// Mixed plan exercising every group shape and store path: multi-
/// config replay groups, a single-timing-cell group, a mix-only group,
/// and a warmed-up state-sensitive scalar IDCT trace.
SweepPlan
makeStorePlan()
{
    SweepPlan plan;
    int c2 = plan.addConfig("2w", timing::CoreConfig::twoWayInOrder());
    int c4 = plan.addConfig("4w", timing::CoreConfig::fourWayOoO());
    const KernelSpec sad{KernelId::Sad, 16, false};
    const KernelSpec idct{KernelId::Idct, 4, false};
    const int execs = 4;

    int multi = plan.addTrace(
        core::kernelTraceJob(sad, Variant::Unaligned, execs));
    plan.addCell(multi, c2);
    plan.addCell(multi, c4);
    plan.addCell(multi, SweepCell::mixOnly);

    int single = plan.addTrace(
        core::kernelTraceJob(sad, Variant::Altivec, execs));
    plan.addCell(single, c4);

    int mix_only = plan.addTrace(
        core::kernelTraceJob(idct, Variant::Unaligned, execs));
    plan.addCell(mix_only, SweepCell::mixOnly);

    int warmed = plan.addTrace(
        core::kernelTraceJob(idct, Variant::Scalar, execs, 12345, 2));
    plan.addCell(warmed, c2);
    plan.addCell(warmed, c4);
    return plan;
}

void
expectResultsEqual(const std::vector<core::SweepCellResult> &a,
                   const std::vector<core::SweepCellResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].traceKey, b[i].traceKey);
        EXPECT_EQ(a[i].configLabel, b[i].configLabel);
        EXPECT_EQ(a[i].traceInstrs, b[i].traceInstrs);
        expectSimEqual(a[i].sim, b[i].sim);
        expectMixEqual(a[i].mix, b[i].mix);
    }
}

/**
 * The reference answer for @p plan: every timing cell simulated by its
 * own PipelineSim oracle over a fresh recording of the cell's trace
 * (mix-only cells stay zeroed, as in the runner's results).
 */
std::vector<timing::SimResult>
oracleResults(const SweepPlan &plan)
{
    std::vector<timing::SimResult> out(plan.cells().size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        const SweepCell &cell = plan.cells()[i];
        if (cell.config == SweepCell::mixOnly)
            continue;
        timing::PipelineSim oracle(plan.configs()[cell.config].cfg);
        plan.traces()[cell.trace].record(oracle);
        out[i] = oracle.finalize();
    }
    return out;
}

void
expectMatchesOracle(const std::vector<timing::SimResult> &want,
                    const std::vector<core::SweepCellResult> &got)
{
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectSimEqual(want[i], got[i].sim);
    }
}

/// Fresh per-test store directory (removed on destruction).
struct StoreDir {
    explicit StoreDir(const char *name)
        : path(::testing::TempDir() + "/uasim_sweep_" + name)
    {
        std::filesystem::remove_all(path);
    }
    ~StoreDir() { std::filesystem::remove_all(path); }
    std::string path;
};

} // namespace

TEST(SweepStore, WarmRunReplaysFromDiskBitIdentical)
{
    StoreDir dir("warm");
    auto baseline = SweepRunner(1).run(makeStorePlan());

    SweepRunner cold(1);
    cold.attachStore(dir.path);
    auto coldResults = cold.run(makeStorePlan());
    expectResultsEqual(baseline, coldResults);
    const auto &cs = cold.stats();
    EXPECT_EQ(cs.tracesRecorded, 4u);
    EXPECT_EQ(cs.tracesStored, 4u);
    EXPECT_EQ(cs.tracesLoaded, 0u);

    SweepRunner warm(1);
    warm.attachStore(dir.path);
    auto warmResults = warm.run(makeStorePlan());
    expectResultsEqual(baseline, warmResults);
    const auto &ws = warm.stats();
    EXPECT_EQ(ws.tracesRecorded, 0u) << "warm run must re-record "
                                        "zero traces";
    EXPECT_EQ(ws.tracesLoaded, 4u);
    EXPECT_EQ(ws.tracesStored, 0u);
    EXPECT_EQ(ws.instrsRecorded, 0u);
    EXPECT_EQ(ws.instrsLoaded, cs.instrsRecorded);
    EXPECT_EQ(ws.instrsReplayed, cs.instrsReplayed);

    // Warm with a thread pool: still bit-identical, still zero
    // re-recording.
    SweepRunner warm4(4);
    warm4.attachStore(dir.path);
    expectResultsEqual(baseline, warm4.run(makeStorePlan()));
    EXPECT_EQ(warm4.stats().tracesRecorded, 0u);
}

TEST(SweepStore, CorruptEntryFallsBackToRecordingAndHeals)
{
    StoreDir dir("heal");
    SweepRunner cold(1);
    cold.attachStore(dir.path);
    auto baseline = cold.run(makeStorePlan());

    // Truncate one published entry (the multi-cell SAD trace).
    const auto plan = makeStorePlan();
    const std::string victim = plan.traces()[0].key;
    const auto path = cold.store()->entryPath(victim);
    ASSERT_TRUE(std::filesystem::exists(path));
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);

    SweepRunner heal(1);
    heal.attachStore(dir.path);
    auto healed = heal.run(makeStorePlan());
    expectResultsEqual(baseline, healed);
    EXPECT_EQ(heal.stats().tracesRecorded, 1u);
    EXPECT_EQ(heal.stats().tracesLoaded, 3u);
    EXPECT_EQ(heal.stats().tracesStored, 1u);

    // The re-recorded entry is valid again.
    SweepRunner warm(1);
    warm.attachStore(dir.path);
    expectResultsEqual(baseline, warm.run(makeStorePlan()));
    EXPECT_EQ(warm.stats().tracesLoaded, 4u);
}

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * Rewrite the store entry for @p key so that its checksum is valid but
 * its record stream is not: the first record gets the taken flag,
 * which only a branch may carry. openReader() accepts the entry, and
 * every decode pass over it throws.
 */
void
corruptRecordStream(const trace::TraceStore &store, const std::string &key)
{
    namespace wire = trace::wire;
    const std::string path = store.entryPath(key);
    trace::TraceReader valid(path, key);
    trace::InstrRecord first;
    ASSERT_TRUE(valid.next(first));
    ASSERT_NE(first.cls, trace::InstrClass::Branch);

    std::string payload =
        readFile(path).substr(wire::headerBytes + key.size() + wire::mixBytes);
    payload[0] = char(std::uint8_t(payload[0]) | 0x80);  // tag taken bit
    const std::string mix = wire::serializeMix(valid.mix());
    wire::Header h;
    h.keyBytes = std::uint32_t(key.size());
    h.recordCount = valid.count();
    h.payloadBytes = payload.size();
    h.payloadHash = wire::payloadHash(payload.data(), payload.size());
    h.keyHash = wire::fnv1a(key.data(), key.size());
    h.mixHash = wire::fnv1a(mix.data(), mix.size());
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << h.serialize() << key << mix << payload;

    auto reader = store.openReader(key);
    ASSERT_NE(reader, nullptr) << "crafted entry must pass open checks";
    trace::InstrRecord rec;
    EXPECT_THROW(reader->next(rec), std::runtime_error);
}

/// One SAD trace replayed into four configs: at 4 threads the single
/// group spends the whole budget on four replay shards.
SweepPlan
makeSingleGroupPlan()
{
    SweepPlan plan;
    const int t = plan.addTrace(core::kernelTraceJob(
        {KernelId::Sad, 16, false}, Variant::Unaligned, 4));
    for (int extra = 0; extra < 4; ++extra) {
        timing::CoreConfig cfg = timing::CoreConfig::fourWayOoO();
        cfg.lat.unalignedLoadExtra = extra;
        plan.addCell(t, plan.addConfig(std::to_string(extra), cfg));
    }
    return plan;
}

} // namespace

TEST(SweepStore, MidDecodeCorruptionFallsBackToRecordingAndHeals)
{
    struct Case {
        const char *name;
        SweepPlan (*plan)();
        int threads;
    };
    for (const Case &c : {Case{"mid_decode_1", makeStorePlan, 1},
                          Case{"mid_decode_4", makeSingleGroupPlan, 4}}) {
        SCOPED_TRACE(c.name);
        StoreDir dir(c.name);
        const auto inMemory = SweepRunner(1).run(c.plan());
        SweepRunner cold(1);
        cold.attachStore(dir.path);
        cold.run(c.plan());

        const std::string victim = c.plan().traces()[0].key;
        corruptRecordStream(*cold.store(), victim);

        SweepRunner heal(c.threads);
        heal.attachStore(dir.path);
        expectResultsEqual(inMemory, heal.run(c.plan()));
        EXPECT_EQ(heal.stats().tracesRecorded, 1u);
        EXPECT_EQ(heal.stats().tracesStored, 1u);
        EXPECT_EQ(heal.stats().threads, c.threads);

        // The re-recorded entry decodes end to end again.
        auto reader = cold.store()->openReader(victim);
        ASSERT_NE(reader, nullptr);
        trace::InstrRecord rec;
        std::uint64_t n = 0;
        while (reader->next(rec))
            ++n;
        EXPECT_EQ(n, reader->count());
        SweepRunner warm(c.threads);
        warm.attachStore(dir.path);
        expectResultsEqual(inMemory, warm.run(c.plan()));
        EXPECT_EQ(warm.stats().tracesRecorded, 0u);
    }
}

TEST(SweepStore, NonCacheableJobsBypassTheStore)
{
    StoreDir dir("nocache");
    int runs = 0;
    auto makePlan = [&runs]() {
        SweepPlan plan;
        plan.addTrace({"side-effect", [&runs](trace::TraceSink &) {
                           ++runs;
                       },
                       /*cacheable=*/false});
        plan.addCell(0, SweepCell::mixOnly);
        return plan;
    };

    SweepRunner first(1);
    first.attachStore(dir.path);
    first.run(makePlan());
    SweepRunner second(1);
    second.attachStore(dir.path);
    second.run(makePlan());

    EXPECT_EQ(runs, 2) << "non-cacheable jobs must run every time";
    EXPECT_EQ(first.stats().tracesStored, 0u);
    EXPECT_EQ(second.stats().tracesLoaded, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

TEST(SweepTraceJob, WarmupReproducesSharedBenchHistory)
{
    // Scalar IDCT traces depend on the bench's accumulated plane
    // state; a warmed-up trace job must reproduce the hand-rolled
    // shared-bench call sequence exactly.
    const KernelSpec spec{KernelId::Idct, 4, false};
    EXPECT_FALSE(spec.traceStateInvariant(Variant::Scalar));
    EXPECT_TRUE(spec.traceStateInvariant(Variant::Altivec));

    const int execs = 4;
    auto cfg = timing::CoreConfig::twoWayInOrder();

    KernelBench shared(spec);
    shared.advanceState(Variant::Scalar, execs);
    shared.advanceState(Variant::Scalar, execs);
    auto want = shared.simulate(Variant::Scalar, cfg, execs);

    auto job = core::kernelTraceJob(spec, Variant::Scalar, execs,
                                    12345, 2);
    timing::PipelineSim sim(cfg);
    job.record(sim);
    expectSimEqual(want, sim.finalize());
}

// ---- the runner against the PipelineSim oracle ----

TEST(SweepOracle, SingleAndMultiCellGroupsColdAndWarmMatchPipelineSim)
{
    StoreDir dir("oracle");
    const SweepPlan plan = makeStorePlan();
    const auto want = oracleResults(plan);

    SweepRunner plain(1);
    expectMatchesOracle(want, plain.run(plan));

    SweepRunner cold(1);
    cold.attachStore(dir.path);
    expectMatchesOracle(want, cold.run(plan));
    EXPECT_EQ(cold.stats().tracesRecorded, 4u);
    EXPECT_EQ(cold.stats().tracesLoaded, 0u);

    SweepRunner warm(1);
    warm.attachStore(dir.path);
    expectMatchesOracle(want, warm.run(plan));
    EXPECT_EQ(warm.stats().tracesRecorded, 0u);
    EXPECT_EQ(warm.stats().tracesLoaded, 4u);

    // A group pool plus sharded warm replay agree too.
    SweepRunner warm4(4);
    warm4.attachStore(dir.path);
    expectMatchesOracle(want, warm4.run(plan));
}

TEST(SweepOracle, OneReplayPassPerTimingGroupColdAndWarm)
{
    // makeStorePlan groups: two 2-cell groups and one 1-cell group,
    // each one batched pass, plus a mix-only group that replays
    // nothing - whether the records came from emulation or the store,
    // and at any group-pool size that leaves no spare shard budget.
    StoreDir dir("passes");
    SweepRunner cold(1);
    cold.attachStore(dir.path);
    cold.run(makeStorePlan());
    const auto &cs = cold.stats();
    EXPECT_EQ(cs.replayPasses, 3u);
    EXPECT_EQ(cs.decodeBytes, 0u);

    SweepRunner warm(4);
    warm.attachStore(dir.path);
    warm.run(makeStorePlan());
    const auto &ws = warm.stats();
    EXPECT_EQ(ws.tracesLoaded, 4u);
    EXPECT_EQ(ws.replayPasses, cs.replayPasses);
    EXPECT_EQ(ws.instrsReplayed, cs.instrsReplayed);
    EXPECT_EQ(ws.cellsRun, cs.cellsRun);
    EXPECT_GT(ws.decodeBytes, 0u);

    SweepPlan mixOnly;
    mixOnly.addTrace(core::kernelTraceJob({KernelId::Sad, 8, false},
                                          Variant::Unaligned, 4));
    mixOnly.addCell(0, SweepCell::mixOnly);
    SweepRunner mixRunner(1);
    mixRunner.run(mixOnly);
    EXPECT_EQ(mixRunner.stats().replayPasses, 0u);
    EXPECT_EQ(mixRunner.stats().instrsReplayed, 0u);
}

// ---- intra-group cell sharding (single big group) ----

namespace {

/// One trace group, 16 timing cells: the worst case for group-level
/// parallelism (pool collapses to one worker) and the best case for
/// intra-group cell sharding.
SweepPlan
makeSingleBigGroupPlan()
{
    const KernelSpec spec{KernelId::Sad, 16, false};
    SweepPlan plan;
    int t = plan.addTrace(core::kernelTraceJob(spec, Variant::Unaligned, 4));
    for (int i = 0; i < 16; ++i) {
        auto cfg = (i % 2) ? timing::CoreConfig::fourWayOoO()
                           : timing::CoreConfig::twoWayInOrder();
        plan.addCell(t, plan.addConfig("c" + std::to_string(i), cfg));
    }
    return plan;
}

} // namespace

TEST(SweepSharding, SingleBigGroupUsesFullThreadBudget)
{
    // Before sharding, a 1-group sweep at --threads 8 ran on one
    // thread (the pool is sized by group count). Now the group's 16
    // cells split across min(threads, cells) replay shards - more
    // than one worker must participate, bit-identically.
    SweepRunner one(1);
    SweepRunner eight(8);
    auto a = one.run(makeSingleBigGroupPlan());
    auto b = eight.run(makeSingleBigGroupPlan());
    expectResultsEqual(a, b);
    expectMatchesOracle(oracleResults(makeSingleBigGroupPlan()), b);

    // 1 thread: one batched pass over the group. 8 threads: 8 shards,
    // each running its own pass - honest pass accounting - and
    // stats().threads reports the fan-out actually used.
    EXPECT_EQ(one.stats().replayPasses, 1u);
    EXPECT_EQ(one.stats().threads, 1);
    EXPECT_EQ(eight.stats().replayPasses, 8u);
    EXPECT_EQ(eight.stats().threads, 8);

    // The simulated accounting is shard-invariant (it gates).
    EXPECT_EQ(one.stats().instrsReplayed, eight.stats().instrsReplayed);
    EXPECT_EQ(one.stats().cellsRun, eight.stats().cellsRun);
    EXPECT_EQ(one.stats().instrsRecorded, eight.stats().instrsRecorded);
}

TEST(SweepSharding, WarmStoreShardedReplayBitIdenticalAndAccounted)
{
    StoreDir dir("sharded_warm");
    auto baseline = SweepRunner(1).run(makeSingleBigGroupPlan());
    expectMatchesOracle(oracleResults(makeSingleBigGroupPlan()), baseline);

    SweepRunner cold(8);
    cold.attachStore(dir.path);
    expectResultsEqual(baseline, cold.run(makeSingleBigGroupPlan()));
    EXPECT_EQ(cold.stats().tracesRecorded, 1u);
    EXPECT_EQ(cold.stats().tracesLoaded, 0u);
    // Cold replay feeds already-decoded records from the in-memory
    // buffer; no payload bytes go through the block decoder.
    EXPECT_EQ(cold.stats().decodeBytes, 0u);

    SweepRunner warm(8);
    warm.attachStore(dir.path);
    expectResultsEqual(baseline, warm.run(makeSingleBigGroupPlan()));
    const auto &ws = warm.stats();
    EXPECT_EQ(ws.tracesRecorded, 0u);
    EXPECT_EQ(ws.tracesLoaded, 1u);
    EXPECT_EQ(ws.replayPasses, 8u);
    EXPECT_EQ(ws.instrsReplayed, cold.stats().instrsReplayed);

    // Each shard decodes the whole stored payload (decode work counts
    // per pass).
    const auto reader = trace::TraceStore(dir.path).openReader(
        makeSingleBigGroupPlan().traces().front().key);
    ASSERT_NE(reader, nullptr);
    EXPECT_GT(reader->payloadBytes(), 0u);
    EXPECT_EQ(ws.decodeBytes, ws.replayPasses * reader->payloadBytes());
}
