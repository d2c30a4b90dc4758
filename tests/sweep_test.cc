/**
 * @file
 * Locks the sweep engine's guarantees (core/sweep.hh):
 *  - replaying a recorded trace into PipelineSim is bit-identical to
 *    streaming the emulation into the model directly;
 *  - the runner's single- and multi-cell groups, cold and warm store,
 *    match one PipelineSim oracle per cell over the full counter
 *    table;
 *  - results and every SweepStats counter are identical for 1 and N
 *    worker threads, and the group pool is min(N, groups) workers;
 *  - a pool thread that cannot start fails the run with its error
 *    after the workers already started are joined;
 *  - duplicate addTrace keys dedupe to one recording;
 *  - a group with one timing cell still populates every mix-only cell
 *    and accounts its instructions as both recorded and replayed;
 *  - kernelTraceJob's warmupCalls reproduces shared-bench history;
 *  - with a persistent store attached, a warm run replays every
 *    cacheable trace from disk with zero re-emulation and results
 *    bit-identical to the in-memory path, corrupt entries (truncated,
 *    or checksum-valid with an undecodable record stream) fall back
 *    to re-recording and are rewritten valid, and non-cacheable jobs
 *    bypass the store;
 *  - cells whose configs canonicalize equal (exact duplicates, fields
 *    the trace or the model never reads) are simulated once, still
 *    match their own oracle and keep their own core name, and every
 *    cell's own config is validated before canonicalization;
 *  - an "ooo" cell copies its pipeline twin only when no load of the
 *    twin blocked on an older store, and is simulated in a second
 *    pass otherwise, with exact simulated-cell and pass counts;
 *  - every replay pass decodes the group's encoded trace, whether it
 *    was just recorded (with or without a store) or loaded: decodeBytes
 *    is exactly passes x payload, and the engine's work counters are
 *    the same storeless, cold and warm, at 1 and 4 threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <variant>
#include <vector>

#include "core/experiment.hh"
#include "core/result.hh"
#include "core/sweep.hh"
#include "file_size_limit.hh"
#include "oracles/ooo_pipeline.hh"
#include "oracles/pipeline.hh"
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
    buffered.addCell(t2, c2);  // two timing cells, one config
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
 * The reference answer for @p plan: every timing cell simulated by the
 * oracle of its own model (PipelineSim or OoOPipelineSim) over a fresh
 * recording of the cell's trace (mix-only cells stay zeroed, as in the
 * runner's results).
 */
std::vector<timing::SimResult>
oracleResults(const SweepPlan &plan)
{
    std::vector<timing::SimResult> out(plan.cells().size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        const SweepCell &cell = plan.cells()[i];
        if (cell.config == SweepCell::mixOnly)
            continue;
        const timing::CoreConfig &cfg = plan.configs()[cell.config].cfg;
        auto simulate = [&](auto &&oracle) {
            plan.traces()[cell.trace].record(oracle);
            out[i] = oracle.finalize();
        };
        if (cfg.model == "ooo")
            simulate(timing::OoOPipelineSim(cfg));
        else
            simulate(timing::PipelineSim(cfg));
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

/// Encoded payload length of @p job's trace: the bytes each replay
/// pass decodes, whether they come from the store or a recording.
std::uint64_t
payloadBytesOf(const core::TraceJob &job)
{
    trace::EncodedTrace encoded;
    job.record(encoded);
    return encoded.payloadBytes();
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
    ASSERT_TRUE(valid.cursor().next(first));
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
    EXPECT_THROW(reader->cursor().next(rec), std::runtime_error);
}

/// One SAD trace replayed into four configs: one group, so one worker
/// at any thread count.
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
        EXPECT_EQ(heal.stats().threads,
                  std::min(c.threads, int(c.plan().traces().size())));

        // The re-recorded entry decodes end to end again.
        auto reader = cold.store()->openReader(victim);
        ASSERT_NE(reader, nullptr);
        trace::TraceCursor cur = reader->cursor();
        trace::InstrRecord rec;
        std::uint64_t n = 0;
        while (cur.next(rec))
            ++n;
        EXPECT_EQ(n, reader->count());
        SweepRunner warm(c.threads);
        warm.attachStore(dir.path);
        expectResultsEqual(inMemory, warm.run(c.plan()));
        EXPECT_EQ(warm.stats().tracesRecorded, 0u);
    }
}

TEST(SweepStore, FailedStoreWritesLeaveResultsAndNoFiles)
{
    // A store that cannot be written degrades to an uncached run:
    // the same results, nothing stored, no entry and no temporary.
    StoreDir dir("full");
    auto baseline = SweepRunner(1).run(makeStorePlan());
    SweepRunner cold(2);
    cold.attachStore(dir.path);
    {
        FileSizeLimit full;
        ASSERT_TRUE(full.active());
        expectResultsEqual(baseline, cold.run(makeStorePlan()));
    }
    EXPECT_EQ(cold.stats().tracesRecorded, 4u);
    EXPECT_EQ(cold.stats().tracesStored, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir.path));
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

    // A group pool agrees too.
    SweepRunner warm4(4);
    warm4.attachStore(dir.path);
    expectMatchesOracle(want, warm4.run(plan));
}

TEST(SweepOracle, OneReplayPassPerTimingGroupColdAndWarm)
{
    // makeStorePlan groups: two 2-cell groups and one 1-cell group,
    // each one batched pass (none has an "ooo" cell, so none needs a
    // second pass), plus a mix-only group that replays nothing -
    // whether the records came from emulation or the store, and at any
    // thread count.
    StoreDir dir("passes");
    const SweepPlan plan = makeStorePlan();
    SweepRunner cold(1);
    cold.attachStore(dir.path);
    cold.run(plan);
    const auto &cs = cold.stats();
    EXPECT_EQ(cs.replayPasses, 3u);
    // Each timing group's one pass decodes its whole encoded trace,
    // recorded or loaded alike; the mix-only group decodes nothing.
    std::uint64_t timingPayload = 0;
    for (int t : {0, 1, 3})
        timingPayload += payloadBytesOf(plan.traces()[t]);
    EXPECT_EQ(cs.decodeBytes, timingPayload);

    SweepRunner warm(4);
    warm.attachStore(dir.path);
    warm.run(makeStorePlan());
    const auto &ws = warm.stats();
    EXPECT_EQ(ws.tracesLoaded, 4u);
    EXPECT_EQ(ws.replayPasses, cs.replayPasses);
    EXPECT_EQ(ws.instrsReplayed, cs.instrsReplayed);
    EXPECT_EQ(ws.cellsRun, cs.cellsRun);
    EXPECT_EQ(ws.decodeBytes, timingPayload);

    SweepPlan mixOnly;
    mixOnly.addTrace(core::kernelTraceJob({KernelId::Sad, 8, false},
                                          Variant::Unaligned, 4));
    mixOnly.addCell(0, SweepCell::mixOnly);
    SweepRunner mixRunner(1);
    mixRunner.run(mixOnly);
    EXPECT_EQ(mixRunner.stats().replayPasses, 0u);
    EXPECT_EQ(mixRunner.stats().instrsReplayed, 0u);
}

// ---- thread-count invariance ----

namespace {

/// Six traces, each replayed into two configs and read for its mix:
/// more groups than threads, so every worker of the pool has work.
SweepPlan
makeSixGroupPlan()
{
    const KernelSpec specs[] = {
        {KernelId::Sad, 16, false},
        {KernelId::LumaMc, 8, false},
        {KernelId::Idct, 4, false},
    };
    SweepPlan plan;
    plan.addConfig("2w", timing::CoreConfig::twoWayInOrder());
    plan.addConfig("4w", timing::CoreConfig::fourWayOoO());
    for (const auto &spec : specs) {
        for (auto variant : {Variant::Altivec, Variant::Unaligned}) {
            int t = plan.addTrace(core::kernelTraceJob(spec, variant, 4));
            plan.addCell(t, 0);
            plan.addCell(t, 1);
            plan.addCell(t, SweepCell::mixOnly);
        }
    }
    return plan;
}

/// One trace group, 16 timing cells: the pool collapses to one worker
/// at any thread count. The 16 configs are pairwise distinct (each
/// preset at eight load latencies), so none of them collapse into
/// another.
SweepPlan
makeSingleBigGroupPlan()
{
    const KernelSpec spec{KernelId::Sad, 16, false};
    SweepPlan plan;
    int t = plan.addTrace(core::kernelTraceJob(spec, Variant::Unaligned, 4));
    for (int i = 0; i < 16; ++i) {
        auto cfg = (i % 2) ? timing::CoreConfig::fourWayOoO()
                           : timing::CoreConfig::twoWayInOrder();
        cfg.lat.load = 4 + i / 2;
        // Appended, not "c" + to_string(i): gcc 12's -Wrestrict
        // misreports the latter under -O2.
        std::string label = "c";
        label += std::to_string(i);
        plan.addCell(t, plan.addConfig(label, cfg));
    }
    return plan;
}

} // namespace

TEST(SweepRunner, ResultsAndStatsThreadCountInvariant)
{
    // The thread count only sizes the group pool: results and every
    // counter of the stats table match at 1 and N threads, and the
    // pool is min(N, groups) workers.
    struct Case {
        const char *name;
        SweepPlan (*plan)();
        int threads;
    };
    for (const Case &c : {Case{"six groups", makeSixGroupPlan, 4},
                          Case{"single big group", makeSingleBigGroupPlan,
                               8}}) {
        SCOPED_TRACE(c.name);
        const SweepPlan plan = c.plan();
        SweepRunner one(1);
        SweepRunner many(c.threads);
        const auto a = one.run(plan);
        const auto b = many.run(plan);
        EXPECT_EQ(one.threads(), 1);
        EXPECT_EQ(many.threads(), c.threads);
        expectResultsEqual(a, b);
        expectMatchesOracle(oracleResults(plan), b);

        const auto &sa = one.stats();
        const auto &sb = many.stats();
        const int groups = int(plan.traces().size());
        EXPECT_EQ(sa.threads, 1);
        EXPECT_EQ(sb.threads, std::min(c.threads, groups));
        for (const core::SweepStatsField &f : core::sweepStatsFields()) {
            if (const auto *m =
                    std::get_if<std::uint64_t core::SweepStats::*>(&f.member)) {
                EXPECT_EQ(sa.*(*m), sb.*(*m)) << "stat " << f.name;
            }
        }
        EXPECT_EQ(sa.cellsRun, std::uint64_t(plan.cells().size()));
        EXPECT_EQ(sa.tracesRecorded, std::uint64_t(groups));
    }
}

TEST(SweepRunner, ThreadStartFailureJoinsStartedWorkersAndRethrows)
{
    // When the k-th pool thread cannot start, run() must stop and join
    // the k workers already running and rethrow the start error - not
    // unwind a vector of joinable threads into std::terminate. The
    // runner stays usable: a later run without the failure matches
    // the oracle.
    const SweepPlan plan = makeSixGroupPlan();
    for (int k : {0, 1, 3}) {
        SCOPED_TRACE(k);
        SweepRunner runner(4);
        std::vector<int> starts;
        runner.setThreadStartHook([&starts, k](int i) {
            starts.push_back(i);
            if (i == k) {
                throw std::system_error(
                    std::make_error_code(
                        std::errc::resource_unavailable_try_again),
                    "test: thread start refused");
            }
        });
        EXPECT_THROW(runner.run(plan), std::system_error);
        EXPECT_EQ(starts.size(), std::size_t(k + 1));

        runner.setThreadStartHook({});
        expectMatchesOracle(oracleResults(plan), runner.run(plan));
        EXPECT_EQ(runner.stats().threads, 4);
    }
}

// ---- simulating each distinct canonical config once ----

namespace {

/**
 * Two traces over one config list: an Altivec trace (no unaligned
 * vector records) and an unaligned one, each crossed with a Fig 9
 * unaligned-latency axis on the 4w preset, an exact duplicate of its
 * +0 config under another label, and two 2w ("pipeline") configs that
 * differ only in the "ooo"-only store-set size. Every config carries
 * its own label as its name, so each cell's SimResult::core is
 * distinct.
 */
SweepPlan
makeDedupPlan()
{
    SweepPlan plan;
    const KernelSpec sad{KernelId::Sad, 16, false};
    plan.addTrace(core::kernelTraceJob(sad, Variant::Altivec, 4));
    plan.addTrace(core::kernelTraceJob(sad, Variant::Unaligned, 4));
    auto add = [&plan](std::string label, timing::CoreConfig cfg) {
        cfg.name = label;
        plan.addConfig(std::move(label), std::move(cfg));
    };
    for (int extra : {0, 1, 2, 4, 6}) {
        auto cfg = timing::CoreConfig::fourWayOoO();
        cfg.lat.unalignedLoadExtra = extra;
        std::string label = "x";
        label += std::to_string(extra);
        add(label, cfg);
    }
    add("x0-again", timing::CoreConfig::fourWayOoO());
    add("2w", timing::CoreConfig::twoWayInOrder());
    auto ss = timing::CoreConfig::twoWayInOrder();
    ss.storeSetLog2 = 3;
    add("2w-ss3", ss);
    plan.crossProduct();
    return plan;
}

} // namespace

TEST(SweepDedup, DuplicateAndIrrelevantConfigsMatchPerCellOracle)
{
    // Altivec group: the six 4w cells collapse into one and the two 2w
    // cells into another. Unaligned group: x0 and x0-again collapse,
    // the other latencies stay distinct, and the 2w pair collapses.
    const std::uint64_t distinct = 2 + (5 + 1);
    StoreDir dir("dedup");
    const SweepPlan plan = makeDedupPlan();
    const auto want = oracleResults(plan);

    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        SweepRunner plain(threads);
        SweepRunner cold(threads);
        SweepRunner warm(threads);
        cold.attachStore(dir.path);
        warm.attachStore(dir.path);
        for (SweepRunner *r : {&plain, &cold, &warm}) {
            const auto got = r->run(plan);
            expectMatchesOracle(want, got);
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i].sim.core, got[i].configLabel);
            const auto &st = r->stats();
            EXPECT_EQ(st.cellsRun, plan.cells().size());
            EXPECT_EQ(st.cellsSimulated, distinct);
            EXPECT_LT(st.cellsSimulated, st.cellsRun);
            EXPECT_LE(st.replayPasses, distinct);
            EXPECT_EQ(st.instrsReplayed,
                      8 * (got.front().traceInstrs +
                           got.back().traceInstrs));
        }
        EXPECT_GT(warm.stats().tracesLoaded, 0u);
    }
}

TEST(SweepDedup, CellsAreValidatedBeforeCanonicalization)
{
    // Neither field is read here (an Altivec trace; a "pipeline"
    // cell), so canonicalization would reset it - the run must still
    // reject the cell's own out-of-range value.
    const KernelSpec sad{KernelId::Sad, 16, false};
    auto badLatency = timing::CoreConfig::fourWayOoO();
    badLatency.lat.unalignedLoadExtra = -1;
    auto badStoreSet = timing::CoreConfig::twoWayInOrder();
    badStoreSet.storeSetLog2 = 0;
    const std::pair<timing::CoreConfig, const char *> cases[] = {
        {badLatency, "lat.unalignedLoadExtra"},
        {badStoreSet, "storeSetLog2"},
    };
    for (const auto &[cfg, field] : cases) {
        SweepPlan plan;
        plan.addTrace(core::kernelTraceJob(sad, Variant::Altivec, 2));
        plan.addConfig("bad", cfg);
        plan.crossProduct();
        try {
            SweepRunner(1).run(plan);
            ADD_FAILURE() << field << ": run() did not throw";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    }
}

// ---- copying "ooo" cells from their pipeline twins ----

namespace {

/// Label-named 4w config of @p model at unaligned-load latency +@p extra.
timing::CoreConfig
twinAxisConfig(const char *model, int extra)
{
    timing::CoreConfig cfg = timing::CoreConfig::fourWayOoO();
    cfg.model = model;
    cfg.lat.unalignedLoadExtra = extra;
    cfg.name = model;
    cfg.name += "+";
    cfg.name += std::to_string(extra);
    return cfg;
}

/**
 * @p traces crossed with {pipeline, ooo} x unaligned-load latency
 * +0..+(extras - 1) on the 4w preset. Every 4w "ooo" config's pipeline
 * twin is the "pipeline" config of the same latency.
 */
SweepPlan
makeTwinPlan(const std::vector<KernelSpec> &traces, int extras)
{
    SweepPlan plan;
    for (const KernelSpec &spec : traces)
        plan.addTrace(core::kernelTraceJob(spec, Variant::Unaligned, 4));
    for (const char *model : {"pipeline", "ooo"}) {
        for (int extra = 0; extra < extras; ++extra) {
            timing::CoreConfig cfg = twinAxisConfig(model, extra);
            std::string label = cfg.name;
            plan.addConfig(std::move(label), std::move(cfg));
        }
    }
    plan.crossProduct();
    return plan;
}

const KernelSpec kIdct4{KernelId::Idct, 4, false};  // no load ever blocks
const KernelSpec kSad16{KernelId::Sad, 16, false};  // loads block

} // namespace

TEST(SweepDedup, OoOCellsCopyAnUnblockedTwinAndRerunTheRest)
{
    // idct4x4: each "ooo" cell copies its pipeline twin. sad16x16: the
    // twins count blocked loads, so its "ooo" cells take a second
    // pass. Either way every cell equals the oracle of its own model.
    StoreDir dir("twin");
    const SweepPlan plan = makeTwinPlan({kIdct4, kSad16}, 3);
    const auto want = oracleResults(plan);
    // Each group: three pipeline configs in pass 1, three "ooo" ones
    // copied (idct) or in pass 2 (sad).
    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        SweepRunner plain(threads);
        SweepRunner cold(threads);
        SweepRunner warm(threads);
        cold.attachStore(dir.path);
        warm.attachStore(dir.path);
        for (SweepRunner *r : {&plain, &cold, &warm}) {
            const auto got = r->run(plan);
            expectMatchesOracle(want, got);
            for (const auto &cell : got)
                EXPECT_EQ(cell.sim.core, cell.configLabel);
            const auto &st = r->stats();
            EXPECT_EQ(st.cellsRun, 12u);
            EXPECT_EQ(st.cellsSimulated, 3u + 6u);
            EXPECT_EQ(st.twinCopies, 3u);
            EXPECT_EQ(st.replayPasses, 1u + 2u);
            EXPECT_GT(st.blockedLoads, 0u);
            EXPECT_GT(st.executedCycles, 0u);
        }
        EXPECT_EQ(warm.stats().tracesLoaded, 2u);
        // The engine work counters are deterministic.
        EXPECT_EQ(plain.stats().blockedLoads, warm.stats().blockedLoads);
        EXPECT_EQ(plain.stats().executedCycles, cold.stats().executedCycles);
        EXPECT_EQ(plain.stats().idleJumpedCycles,
                  warm.stats().idleJumpedCycles);
    }
}

TEST(SweepOneReplayPath, StorelessColdAndWarmDecodeEveryPass)
{
    // One two-pass group (sad16x16's pipeline twins block, so its
    // "ooo" cells run a second pass): without a store, recording into
    // an empty one, and replaying from it, every pass decodes the same
    // encoded payload through its own cursor. Results match
    // the oracles, decodeBytes is exactly passes x payload, and the
    // engine's work counters are the same in every run.
    const SweepPlan plan = makeTwinPlan({kSad16}, 3);
    const auto want = oracleResults(plan);
    const std::uint64_t payload = payloadBytesOf(plan.traces().front());
    ASSERT_GT(payload, 0u);
    std::optional<core::SweepStats> first;
    for (int threads : {1, 4}) {
        StoreDir dir(threads == 1 ? "one_path_1" : "one_path_4");
        SweepRunner plain(threads);
        SweepRunner cold(threads);
        SweepRunner warm(threads);
        cold.attachStore(dir.path);
        warm.attachStore(dir.path);
        for (SweepRunner *r : {&plain, &cold, &warm}) {
            SCOPED_TRACE("threads " + std::to_string(threads) + " " +
                         (r == &plain ? "storeless"
                                      : r == &cold ? "cold" : "warm"));
            expectMatchesOracle(want, r->run(plan));
            const auto &st = r->stats();
            // Pass 1 and pass 2 run 3 configs each, at any thread
            // count.
            EXPECT_EQ(st.replayPasses, 2u);
            EXPECT_EQ(st.decodeBytes, st.replayPasses * payload);
            EXPECT_EQ(st.tracesLoaded, r == &warm ? 1u : 0u);
            EXPECT_EQ(st.tracesStored, r == &cold ? 1u : 0u);
            EXPECT_GT(st.issueAttempts, 0u);
            if (!first) {
                first = st;
                continue;
            }
            for (std::uint64_t core::SweepStats::*m :
                 {&core::SweepStats::blockedLoads,
                  &core::SweepStats::executedCycles,
                  &core::SweepStats::idleJumpedCycles,
                  &core::SweepStats::issueAttempts,
                  &core::SweepStats::producerWaits,
                  &core::SweepStats::tokenWaits,
                  &core::SweepStats::portWaits,
                  &core::SweepStats::storeWaits,
                  &core::SweepStats::mshrWaits,
                  &core::SweepStats::wakeSkips,
                  &core::SweepStats::watcherFlushes})
                EXPECT_EQ(st.*m, (*first).*m);
        }
        // The store entry's payload is the in-memory one.
        const auto reader = trace::TraceStore(dir.path).openReader(
            plan.traces().front().key);
        ASSERT_NE(reader, nullptr);
        EXPECT_EQ(reader->payloadBytes(), payload);
    }
}

TEST(SweepDedup, TwinOutsideTheGroupOrWiderIssueIsSimulated)
{
    // No copy without a twin among the group's own configs: an "ooo"
    // cell next to an in-order pipeline cell, and one whose issue
    // width differs from its fetch width, both run in pass 1.
    SweepPlan plan;
    plan.addTrace(core::kernelTraceJob(kIdct4, Variant::Unaligned, 4));
    timing::CoreConfig inOrder = timing::CoreConfig::twoWayInOrder();
    plan.addConfig("2w", inOrder);
    inOrder.model = "ooo";
    plan.addConfig("2w-ooo", inOrder);
    plan.addConfig("pipeline+0", twinAxisConfig("pipeline", 0));
    timing::CoreConfig wide = twinAxisConfig("ooo", 0);
    wide.issueWidth = wide.fetchWidth + 1;
    plan.addConfig("ooo-wide", wide);
    plan.crossProduct();
    SweepRunner runner(1);
    expectMatchesOracle(oracleResults(plan), runner.run(plan));
    EXPECT_EQ(runner.stats().cellsSimulated, 4u);
    EXPECT_EQ(runner.stats().twinCopies, 0u);
    EXPECT_EQ(runner.stats().replayPasses, 1u);
}
