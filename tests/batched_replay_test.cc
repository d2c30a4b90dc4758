/**
 * @file
 * Differential harness for the batched replay engine
 * (timing/batched_pipeline.hh): for any record stream and any config
 * grid, BatchedPipelineSim must produce per-cell SimResults
 * bit-identical to one standalone reference oracle per config fed the
 * same stream - PipelineSim for a "pipeline" cell, OoOPipelineSim for
 * an "ooo" cell (the test-only oracles of tests/oracles/). Coverage:
 *  - real kernel traces (KernelBench::recordTrace) across the paper
 *    presets and randomized (seeded) config grids that mutate every
 *    CoreConfig knob - model, predictor and store-set sizes, issue
 *    width and memory bandwidth included, so one group mixes both
 *    backends and several predictor geometries - including inflight
 *    windows spanning the 1024 producer-ready-ring boundary;
 *  - a store-set aliasing stream replayed through tiny SSITs;
 *  - degenerate grids: a single cell, duplicate configs;
 *  - the one-cell engine makeTimingModel() returns for each backend,
 *    fed record by record as emulation feeds it, and its finalize()
 *    (the one-cell finalizeAll());
 *  - synthetic dependence chains long enough to wrap the ready ring;
 *  - append() vs appendBlock() chunk-boundary equivalence, the
 *    empty stream, and the rejection of records whose ids do not
 *    increase or whose deps are not older than themselves;
 *  - latencies of 0, where a consumer issues in its producer's cycle;
 *  - one producer with more in-flight consumers than a ready-ring
 *    watcher list holds, over dense and ring-aliasing ids;
 *  - a producer that takes its ready-ring entry back from an aliasing
 *    id after a consumer met a bound that read it as ready;
 *  - the issue-stage work counters (CellWork): per cell of the
 *    randomized grids, tryIssue attempts are the issued instructions
 *    plus one failure per failed check, and on real kernels at most
 *    5% of attempts re-run the producer check;
 *  - the relevance sets of timing::coreConfigFields(): a field
 *    perturbed over its whole range where its relevance says no
 *    backend reads it (the trace lacks its classes, or the cell is of
 *    the other model) leaves every counter bit-identical to the oracle
 *    of the canonical config, the proof SweepRunner's per-trace
 *    config deduplication rests on;
 *  - pipeline twins (timing::pipelineTwin): whenever the twin counts
 *    no blocked load, the "ooo" oracle of its preimage equals the
 *    "pipeline" oracle of the twin on every counter, the proof
 *    SweepRunner's twin copies rest on;
 *  - the idle jump over loads that wait on older stores: it skips a
 *    memory miss behind such a wait, and an "ooo" cell steps about as
 *    few cycles as its pipeline twin on kernels whose loads wait.
 * Every comparison iterates core::simResultFields(), so a counter
 * added to SimResult is automatically diffed here — modeling it in
 * one engine but not the other fails the harness by construction.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/result.hh"
#include "oracles/ooo_pipeline.hh"
#include "oracles/pipeline.hh"
#include "timing/batched_pipeline.hh"
#include "timing/config.hh"
#include "timing/model.hh"
#include "trace/emitter.hh"
#include "trace/mix.hh"
#include "trace/sink.hh"
#include "trace/trace_buffer.hh"

using namespace uasim;
using core::KernelBench;
using core::KernelSpec;
using h264::KernelId;
using h264::Variant;
using timing::BatchedPipelineSim;
using timing::CoreConfig;
using timing::OoOPipelineSim;
using timing::PipelineSim;
using trace::InstrClass;
using trace::InstrRecord;

namespace {

/// Feed @p records into @p sim one at a time and finalize it.
template <class Sim>
timing::SimResult
runOracle(Sim &&sim, const std::vector<InstrRecord> &records)
{
    for (const auto &rec : records)
        sim.feed(rec);
    return sim.finalize();
}

/// Per-cell oracle: one fresh reference simulator per config over the
/// stream, picked by the config's model.
std::vector<timing::SimResult>
perCellResults(const std::vector<CoreConfig> &cfgs,
               const std::vector<InstrRecord> &records)
{
    std::vector<timing::SimResult> out;
    out.reserve(cfgs.size());
    for (const auto &cfg : cfgs) {
        if (cfg.model == "ooo")
            out.push_back(runOracle(OoOPipelineSim(cfg), records));
        else
            out.push_back(runOracle(PipelineSim(cfg), records));
    }
    return out;
}

/// Batched run over the same stream, fed through appendBlock.
std::vector<timing::SimResult>
batchedResults(const std::vector<CoreConfig> &cfgs,
               const std::vector<InstrRecord> &records)
{
    BatchedPipelineSim batch(cfgs);
    batch.appendBlock(records.data(), records.size());
    return batch.finalizeAll();
}

/// Compare two SimResults counter-by-counter via the shared field
/// table (core/result.hh), so new counters cannot dodge the diff.
void
expectFieldsIdentical(const timing::SimResult &want,
                      const timing::SimResult &got,
                      const std::string &label)
{
    EXPECT_EQ(want.core, got.core) << label;
    for (const auto &f : core::simResultFields())
        EXPECT_EQ(want.*(f.member), got.*(f.member))
            << label << ": counter " << f.name;
}

/// The harness proper: batched vs per-cell over one stream.
void
expectBitIdentical(const std::vector<CoreConfig> &cfgs,
                   const std::vector<InstrRecord> &records,
                   const std::string &label)
{
    auto want = perCellResults(cfgs, records);
    auto got = batchedResults(cfgs, records);
    ASSERT_EQ(want.size(), got.size()) << label;
    for (std::size_t i = 0; i < want.size(); ++i)
        expectFieldsIdentical(want[i], got[i],
                              label + " cell " + std::to_string(i) +
                                  " (" + cfgs[i].name + ", " +
                                  cfgs[i].model + ")");
}

/// Record @p execs executions of a kernel into a plain record vector.
std::vector<InstrRecord>
kernelRecords(const KernelSpec &spec, Variant variant, int execs)
{
    trace::TraceBuffer sink;
    KernelBench bench(spec);
    bench.recordTrace(variant, execs, sink);
    return sink.records();
}

/**
 * Seeded random CoreConfig exercising every knob either backend
 * reads. Values stay in plausible machine ranges (all >= 1 where the
 * model divides or reserves), but deliberately include tiny queues,
 * in-order cores with different lookaheads, single-ported caches,
 * windows big enough to cross the 1024-entry ready-ring floor, tiny
 * predictor and store-set tables, and both backends in one grid.
 * Class and load latencies are drawn from @p minLatency up; at 0 the
 * integer ALU latency is drawn too, after every other draw, so a
 * seed's draws at the default are the same as without the parameter.
 */
CoreConfig
randomConfig(std::mt19937_64 &rng, int idx, int minLatency = 1)
{
    auto pick = [&rng](int lo, int hi) {
        return int(lo + std::int64_t(rng() % std::uint64_t(hi - lo + 1)));
    };
    CoreConfig c = CoreConfig::preset(pick(0, 2));
    c.name = "rand" + std::to_string(idx);
    c.model = (rng() & 1) != 0 ? "ooo" : "pipeline";
    c.outOfOrder = (rng() & 1) != 0;
    c.inorderLookahead = pick(1, 8);
    c.fetchWidth = pick(1, 8);
    c.retireWidth = pick(1, 8);
    // One in four grids gets a window past the 1024 ready-ring floor.
    c.inflight = (rng() % 4 == 0) ? pick(1025, 2048) : pick(4, 256);
    c.issueQ = pick(2, 64);
    c.branchQ = pick(1, 16);
    c.ibuffer = pick(2, 48);
    c.units.fx = pick(1, 3);
    c.units.fp = pick(1, 2);
    c.units.ls = pick(1, 2);
    c.units.br = pick(1, 2);
    c.units.vi = pick(1, 2);
    c.units.vperm = pick(1, 2);
    c.units.vcmplx = pick(1, 2);
    c.gprPhys = pick(40, 4096);
    c.fprPhys = pick(40, 256);
    c.vprPhys = pick(40, 256);
    c.dReadPorts = pick(1, 3);
    c.dWritePorts = pick(1, 2);
    c.missMax = pick(1, 8);
    c.storeQ = pick(4, 32);
    c.bpredLog2Entries = pick(1, 14);
    // Half the draws couple issue width to fetch width (0); "pipeline"
    // cells must ignore a nonzero value.
    c.issueWidth = (rng() & 1) != 0 ? 0 : pick(1, 8);
    c.storeSetLog2 = pick(1, 12);
    c.memReplayPenalty = pick(0, 12);
    c.lat.intMul = pick(minLatency, 5);
    c.lat.fpAlu = pick(minLatency, 8);
    c.lat.load = pick(minLatency, 6);
    c.lat.unalignedLoadExtra = pick(0, 6);
    c.lat.unalignedStoreExtra = pick(0, 4);
    c.lat.mispredictPenalty = pick(4, 20);
    c.lat.branchResolve = pick(minLatency, 4);
    c.lat.vecSimple = pick(minLatency, 3);
    c.lat.vecPerm = pick(minLatency, 3);
    c.lat.vecComplex = pick(minLatency, 6);
    c.mem.parallelBanks = (rng() & 1) != 0;
    c.mem.l2Latency = pick(6, 20);
    c.mem.memLatency = pick(100, 300);
    c.mem.memBWBytesPerCycle = (rng() % 3 == 0) ? 0 : pick(1, 32);
    if (minLatency == 0)
        c.lat.intAlu = pick(0, 2);
    return c;
}

/// Serial dependence chain of @p n IntAlu records (each depends on
/// its predecessor), long enough to wrap any ready ring under test.
std::vector<InstrRecord>
chainRecords(int n)
{
    std::vector<InstrRecord> recs;
    recs.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i) {
        InstrRecord rec{};
        rec.id = std::uint64_t(i) + 1;
        rec.pc = 0x1000 + std::uint64_t(i % 64) * 4;
        rec.cls = InstrClass::IntAlu;
        if (i > 0)
            rec.deps[0] = rec.id - 1;
        recs.push_back(rec);
    }
    return recs;
}

/**
 * Store/load pairs from a handful of call sites (so distinct PCs) that
 * alias in memory: partial overlaps that can never forward, contained
 * loads that forward once the store's realignment pipe drains, and
 * unaligned vector stores. Under an "ooo" cell the first instances
 * speculate and train the SSIT; a tiny SSIT makes unrelated PCs share
 * entries and set ids, so training keeps colliding.
 */
std::vector<InstrRecord>
storeSetAliasRecords(std::uint64_t base, int iters)
{
    trace::TraceBuffer sink;
    trace::Emitter em(sink);
    for (int i = 0; i < iters; ++i) {
        const std::uint64_t a = base + 64 * std::uint64_t(i % 8);
        // Partial overlap: store 8 bytes, load 16 across it.
        em.emitMem(InstrClass::Store, a + 4, 8,
                   std::source_location::current());
        em.emitMem(InstrClass::VecLoadU, a, 16,
                   std::source_location::current());
        em.emit(InstrClass::IntAlu, std::source_location::current());
        // Contained load: forwardable after the store drains its pipe.
        em.emitMem(InstrClass::VecStoreU, a + 33, 16,
                   std::source_location::current());
        em.emitMem(InstrClass::Load, a + 37, 8,
                   std::source_location::current());
        // A non-aliasing load and a branch between the pairs.
        em.emitMem(InstrClass::Load, a + 2048, 8,
                   std::source_location::current());
        em.emitBranch(i % 3 != 0, std::source_location::current());
    }
    return sink.records();
}

/**
 * Seeded random stream over every instruction class: up to three deps
 * on the last eight records, a few dozen call sites, and accesses that
 * land in a 256-byte hot window with probability @p hotPct percent
 * (older stores there overlap later loads, partially or fully) and
 * otherwise in a 1 MiB region where overlaps are rare. Record i has id
 * 1 + i * @p idStride; a stride of a ready-ring fraction makes records
 * in flight together share ring entries.
 */
std::vector<InstrRecord>
randomRecords(std::uint64_t seed, int n, int hotPct,
              std::uint64_t idStride = 1)
{
    std::mt19937_64 rng(seed);
    std::vector<InstrRecord> recs;
    recs.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i) {
        InstrRecord rec{};
        rec.id = 1 + std::uint64_t(i) * idStride;
        rec.pc = 0x10000 + 4 * (rng() % 48);
        rec.cls = InstrClass(rng() % std::uint64_t(trace::numInstrClasses));
        for (auto &d : rec.deps) {
            if (i > 0 && rng() % 2 != 0)
                d = recs[std::size_t(i) - 1 -
                         rng() % std::uint64_t(std::min(i, 8))]
                        .id;
        }
        if (rec.isMem()) {
            rec.size = trace::isVectorClass(rec.cls)
                ? 16
                : std::uint8_t(1u << (rng() % 4));
            rec.addr = int(rng() % 100) < hotPct
                ? 0x5000 + rng() % 256
                : 0x100000 + rng() % (1u << 20);
            if (rec.cls == InstrClass::VecLoad ||
                rec.cls == InstrClass::VecStore)
                rec.addr &= ~std::uint64_t{15};
        }
        rec.taken = rec.cls == InstrClass::Branch && rng() % 3 != 0;
        recs.push_back(rec);
    }
    return recs;
}

/**
 * Fan-out stream for the wake-bound watcher lists, in groups of eight
 * records: a missing load whose address depends on the previous
 * group's chain (so it often waits to issue while its consumers
 * dispatch), four consumers of it, a store fed by their chain, a load
 * the store fully overlaps (which waits on the store's issue in a
 * "pipeline" cell) and a fifth consumer (five are more than a
 * ready-ring watcher list holds). Record i has id 1 + i * @p idStride: stride 1 is
 * the emulator's dense numbering, whose ready-ring rewrites only ever
 * replace completed producers; a stride of a ring fraction makes live
 * producers alias, so ring entries change owner while consumers still
 * wait on them.
 */
std::vector<InstrRecord>
fanOutRecords(int groups, std::uint64_t idStride)
{
    std::vector<InstrRecord> recs;
    recs.reserve(8 * std::size_t(groups));
    auto idOf = [idStride](std::size_t i) { return 1 + i * idStride; };
    for (int g = 0; g < groups; ++g) {
        const std::size_t base = recs.size();
        auto add = [&](InstrClass cls, std::uint64_t dep0,
                       std::uint64_t dep1, std::uint64_t addr = 0) {
            InstrRecord rec{};
            rec.id = idOf(recs.size());
            rec.pc = 0x2000 + 4 * (recs.size() - base);
            rec.cls = cls;
            rec.deps[0] = dep0;
            rec.deps[1] = dep1;
            rec.addr = addr;
            rec.size = rec.isMem() ? 8 : 0;
            recs.push_back(rec);
        };
        const std::uint64_t producer = idOf(base);
        const std::uint64_t chain = g > 0 ? idOf(base - 4) : 0;
        const std::uint64_t storeAddr = 0x5000 + 8 * std::uint64_t(g % 4);
        add(InstrClass::Load, chain, 0,
            0x100000 + 4096 * std::uint64_t(g % 512));
        add(InstrClass::IntAlu, producer, 0);
        add(InstrClass::IntMul, producer, idOf(base + 1));
        add(InstrClass::IntAlu, producer, 0);
        add(InstrClass::IntAlu, producer, idOf(base + 3));
        add(InstrClass::Store, idOf(base + 4), 0, storeAddr);
        add(InstrClass::Load, 0, 0, storeAddr);
        add(InstrClass::IntAlu, producer, idOf(base + 6));
    }
    return recs;
}

/**
 * Store-wait stream for the idle jump, in groups of five records: a
 * load that misses to memory (fresh line) and heads the ROB, its
 * address fed by the previous group's miss, so misses never overlap;
 * a store and a load it partially overlaps, which can never forward,
 * so the load waits until the store drains behind the miss; an
 * unaligned vector store and a load it contains, which forwards once
 * the store's realignment pipe drains (fwdReady) and also feeds the
 * next group's miss. Fixed PCs, so an "ooo" cell trains both pairs
 * into store sets and then waits on them.
 */
std::vector<InstrRecord>
storeWaitRecords(int groups)
{
    std::vector<InstrRecord> recs;
    auto add = [&recs](InstrClass cls, std::uint64_t addr,
                       std::uint8_t size, std::uint64_t dep0 = 0,
                       std::uint64_t dep1 = 0) {
        InstrRecord rec{};
        rec.id = recs.size() + 1;
        rec.pc = 0x3000 + 4 * (recs.size() % 5);
        rec.cls = cls;
        rec.addr = addr;
        rec.size = size;
        rec.deps[0] = dep0;
        rec.deps[1] = dep1;
        recs.push_back(rec);
    };
    for (int g = 0; g < groups; ++g) {
        const std::uint64_t a = 0x5000 + 64 * std::uint64_t(g % 8);
        const std::uint64_t prev = recs.size();  // previous group's last id
        add(InstrClass::Load, 0x100000 + 4096 * std::uint64_t(g), 8,
            g > 0 ? prev - 4 : 0, prev);
        add(InstrClass::Store, a + 4, 8);
        add(InstrClass::Load, a, 8);
        add(InstrClass::VecStoreU, a + 33, 16);
        add(InstrClass::Load, a + 37, 8);
    }
    return recs;
}

/**
 * Takeback stream for met producer bounds, in groups of four records:
 * a load that misses to memory and, under a one-entry MSHR file, holds
 * it; a multiply that waits on the load; an id one @p ringSize later,
 * which takes the waiting multiply's ready-ring entry at dispatch; and
 * a missing load that consumes the multiply. That load reads its
 * producer as ready through the taken entry, so its bound is met at
 * dispatch, and it waits for the MSHR instead. When the miss returns,
 * the multiply issues and takes its entry back with a ready cycle
 * still ahead, which the load must now wait for. Each group's miss
 * depends on the previous group's load, so a load issued early shows
 * in every later cycle.
 */
std::vector<InstrRecord>
takebackRecords(int groups, std::uint64_t ringSize)
{
    std::vector<InstrRecord> recs;
    auto add = [&recs](std::uint64_t id, InstrClass cls,
                       std::uint64_t dep0, std::uint64_t addr) {
        InstrRecord rec{};
        rec.id = id;
        rec.pc = 0x4000 + 4 * (recs.size() % 4);
        rec.cls = cls;
        rec.deps[0] = dep0;
        rec.addr = addr;
        rec.size = rec.isMem() ? 8 : 0;
        recs.push_back(rec);
    };
    std::uint64_t id = 1;
    for (int g = 0; g < groups; ++g) {
        const std::uint64_t line = 4096 * std::uint64_t(g);
        const std::uint64_t prevLoad = g > 0 ? id - 1 : 0;
        add(id, InstrClass::Load, prevLoad, 0x100000 + line);
        add(id + 1, InstrClass::IntMul, id, 0);
        add(id + 1 + ringSize, InstrClass::IntAlu, 0, 0);
        add(id + 2 + ringSize, InstrClass::Load, id + 1, 0x800000 + line);
        id += ringSize + 3;
    }
    return recs;
}

} // namespace

TEST(BatchedReplay, PresetGridOnKernelTraces)
{
    const KernelSpec specs[] = {
        {KernelId::Sad, 16, false},
        {KernelId::LumaMc, 8, false},
        {KernelId::Idct, 4, true},
    };
    const Variant variants[] = {Variant::Scalar, Variant::Altivec,
                                Variant::Unaligned};
    const std::vector<CoreConfig> cfgs = {
        CoreConfig::twoWayInOrder(),
        CoreConfig::fourWayOoO(),
        CoreConfig::eightWayOoO(),
    };
    for (const auto &spec : specs) {
        for (auto variant : variants) {
            auto records = kernelRecords(spec, variant, 4);
            ASSERT_FALSE(records.empty());
            expectBitIdentical(cfgs, records,
                               spec.name() + "/" +
                                   std::string(
                                       h264::variantName(variant)));
        }
    }
}

TEST(BatchedReplay, RandomizedConfigGrids)
{
    // Three seeded grids of eight random configs each (both models
    // and several predictor sizes per grid), replaying a real
    // unaligned vector trace (the densest feature mix: vector loads/
    // stores, line crossings, store forwarding, branches).
    auto records =
        kernelRecords({KernelId::ChromaMc, 8, false}, Variant::Unaligned, 4);
    ASSERT_FALSE(records.empty());
    for (std::uint64_t seed : {1u, 20260807u, 0xdecafu}) {
        std::mt19937_64 rng(seed);
        std::vector<CoreConfig> cfgs;
        for (int i = 0; i < 8; ++i)
            cfgs.push_back(randomConfig(rng, i));
        expectBitIdentical(cfgs, records,
                           "seed " + std::to_string(seed));
    }
}

TEST(BatchedReplay, ZeroLatencyConfigGrids)
{
    // Validation admits a latency of 0 for every class and for loads,
    // so a consumer can issue in its producer's own cycle, later in the
    // same issue scan. Seeded grids with those latencies drawn from 0
    // on, each grid covering both models with and without outOfOrder,
    // over a real unaligned trace and a dense random stream.
    const std::vector<InstrRecord> streams[] = {
        kernelRecords({KernelId::ChromaMc, 8, false}, Variant::Unaligned, 4),
        randomRecords(0x2e70, 3000, 30),
    };
    for (std::uint64_t seed : {3u, 0x5eedu, 20261019u}) {
        std::mt19937_64 rng(seed);
        std::vector<CoreConfig> cfgs;
        for (int i = 0; i < 8; ++i) {
            CoreConfig c = randomConfig(rng, i, 0);
            c.model = (i & 1) != 0 ? "ooo" : "pipeline";
            c.outOfOrder = (i & 2) != 0;
            cfgs.push_back(c);
        }
        for (std::size_t s = 0; s < std::size(streams); ++s)
            expectBitIdentical(cfgs, streams[s],
                               "zero-latency seed " + std::to_string(seed) +
                                   " stream " + std::to_string(s));
    }
}

TEST(BatchedReplay, WatcherOverflowAndRingWrap)
{
    // One producer with five in-flight consumers overflows its watcher
    // list; 4,000 records wrap the 1,024-entry ready ring several
    // times, so dispatch keeps rewriting entries whose owner completed
    // long ago and watchers re-register on the new owners. The strided
    // ids alias live producers (every fourth record shares an entry).
    std::vector<CoreConfig> cfgs;
    for (int p = 0; p < 3; ++p) {
        for (const char *model : {"pipeline", "ooo"}) {
            CoreConfig c = CoreConfig::preset(p);
            c.name = c.name + "-" + model;
            c.model = model;
            cfgs.push_back(c);
        }
    }
    CoreConfig zero = CoreConfig::fourWayOoO();
    zero.name = "4w-zero-latency";
    zero.lat.intAlu = 0;
    zero.lat.load = 0;
    cfgs.push_back(zero);
    for (std::uint64_t stride : {1u, 256u}) {
        const auto records = fanOutRecords(500, stride);
        expectBitIdentical(cfgs, records,
                           "fan-out stride " + std::to_string(stride));
        BatchedPipelineSim batch(cfgs);
        batch.appendBlock(records.data(), records.size());
        batch.finalizeAll();
        std::uint64_t flushes = 0;
        for (int i = 0; i < batch.cellCount(); ++i)
            flushes += batch.work(i).watcherFlushes;
        EXPECT_GT(flushes, 0u) << "stride " << stride;
    }
}

TEST(BatchedReplay, RandomStreamsWithAliasingIds)
{
    // Ids a ring fraction apart make producers still in flight share
    // ready-ring entries: an entry changes owner while consumers wait
    // on it, and a producer issuing takes its entry back from a younger
    // owner whose consumers then read as ready at once, in the middle
    // of the issue scan.
    for (std::uint64_t stride : {255u, 512u, 1024u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            std::mt19937_64 rng(seed * 7919 + stride);
            std::vector<CoreConfig> cfgs;
            for (int i = 0; i < 8; ++i) {
                cfgs.push_back(randomConfig(rng, i, i % 2));
                // A window within the 1024-entry ring floor, which the
                // strides alias.
                cfgs.back().inflight = std::min(cfgs.back().inflight, 256);
            }
            expectBitIdentical(cfgs,
                               randomRecords(seed, 1500, 30, stride),
                               "stride " + std::to_string(stride) +
                                   " seed " + std::to_string(seed));
        }
    }
}

TEST(BatchedReplay, TakenBackRingEntryDropsMetBounds)
{
    // A met producer bound skips tryIssue's producer check, which is
    // sound only while ready cycles never move later. A producer
    // taking its entry back from an aliasing id is the one move later:
    // its consumer met a bound that read it as ready, and must wait
    // again (the setReady drop), in both backends.
    CoreConfig pipe = CoreConfig::fourWayOoO();
    pipe.missMax = 1;
    pipe.lat.intMul = 4;
    CoreConfig ooo = pipe;
    ooo.name += "-ooo";
    ooo.model = "ooo";
    const std::vector<CoreConfig> cfgs = {pipe, ooo};
    // The 1,024-entry ring floor; a larger window would grow the ring.
    ASSERT_LE(2 * pipe.inflight, 1024);
    const int groups = 20;
    const auto records = takebackRecords(groups, 1024);
    expectBitIdentical(cfgs, records, "takeback");

    BatchedPipelineSim batch(cfgs);
    batch.appendBlock(records.data(), records.size());
    batch.finalizeAll();
    for (int i = 0; i < batch.cellCount(); ++i) {
        SCOPED_TRACE(cfgs[std::size_t(i)].name);
        const auto &w = batch.work(i);
        // Every group takes an entry back, and its load then waits on
        // the producer it had read as ready.
        EXPECT_GE(w.watcherFlushes, std::uint64_t(groups));
        EXPECT_GE(w.producerWaits, std::uint64_t(groups));
        EXPECT_GT(w.mshrWaits, 0u);
    }
}

TEST(BatchedReplay, IssueCountersAccountForEveryAttempt)
{
    // Over the randomized grids, per cell: every tryIssue either
    // issues (once per simulated instruction) or fails on exactly one
    // check, so attempts are instrs plus the five failure counts.
    auto records =
        kernelRecords({KernelId::ChromaMc, 8, false}, Variant::Unaligned, 4);
    ASSERT_FALSE(records.empty());
    BatchedPipelineSim::CellWork total;
    for (std::uint64_t seed : {1u, 20260807u, 0xdecafu}) {
        std::mt19937_64 rng(seed);
        std::vector<CoreConfig> cfgs;
        for (int i = 0; i < 8; ++i)
            cfgs.push_back(randomConfig(rng, i));
        BatchedPipelineSim batch(cfgs);
        batch.appendBlock(records.data(), records.size());
        const auto sims = batch.finalizeAll();
        for (std::size_t i = 0; i < sims.size(); ++i) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " cell " +
                         std::to_string(i));
            const auto &w = batch.work(int(i));
            EXPECT_EQ(sims[i].instrs, records.size());
            EXPECT_EQ(w.issueAttempts,
                      sims[i].instrs + w.producerWaits + w.tokenWaits +
                          w.portWaits + w.storeWaits + w.mshrWaits);
            total.producerWaits += w.producerWaits;
            total.tokenWaits += w.tokenWaits;
            total.portWaits += w.portWaits;
            total.storeWaits += w.storeWaits;
            total.mshrWaits += w.mshrWaits;
            total.wakeSkips += w.wakeSkips;
            total.watcherFlushes += w.watcherFlushes;
        }
    }
    // The grids reach every check, the wake-bound skip and the
    // watcher-overflow flush.
    EXPECT_GT(total.producerWaits, 0u);
    EXPECT_GT(total.tokenWaits, 0u);
    EXPECT_GT(total.portWaits, 0u);
    EXPECT_GT(total.storeWaits, 0u);
    EXPECT_GT(total.mshrWaits, 0u);
    EXPECT_GT(total.wakeSkips, 0u);
    EXPECT_GT(total.watcherFlushes, 0u);
}

TEST(BatchedReplay, MetProducerBoundsSkipTheProducerCheck)
{
    // Dispatch and setReady keep a slot's producer bound exact, and a
    // met bound stays met, so tryIssue re-runs the producer check only
    // on the few attempts whose bound a flush or a rewake left unknown:
    // at most 5% of attempts on real kernels, in both backends (an
    // engine that checks on every attempt reads 100%).
    CoreConfig ooo = CoreConfig::fourWayOoO();
    ooo.name += "-ooo";
    ooo.model = "ooo";
    const std::vector<CoreConfig> cfgs = {CoreConfig::fourWayOoO(), ooo};
    for (const KernelSpec &spec : {KernelSpec{KernelId::LumaMc, 16, false},
                                   KernelSpec{KernelId::Sad, 16, false}}) {
        const auto records = kernelRecords(spec, Variant::Unaligned, 8);
        BatchedPipelineSim batch(cfgs);
        batch.appendBlock(records.data(), records.size());
        batch.finalizeAll();
        for (int i = 0; i < batch.cellCount(); ++i) {
            SCOPED_TRACE(spec.name() + " " + cfgs[std::size_t(i)].name);
            const auto &w = batch.work(i);
            EXPECT_GE(w.producerChecks, w.producerWaits);
            EXPECT_LE(w.producerChecks * 20, w.issueAttempts)
                << w.producerChecks << " checks";
        }
    }
}

TEST(BatchedReplay, MixedModelsAndPredictorSizesInOneGroup)
{
    // Both backends and three predictor geometries share one pass:
    // every cell must still match the oracle of its own model.
    std::vector<CoreConfig> cfgs;
    const int bpredSizes[] = {2, 12, 7};
    for (int p = 0; p < 3; ++p) {
        for (const char *model : {"pipeline", "ooo"}) {
            CoreConfig c = CoreConfig::preset(p);
            c.name = c.name + "-" + model;
            c.model = model;
            c.bpredLog2Entries = bpredSizes[(p + (c.model == "ooo")) % 3];
            cfgs.push_back(c);
        }
    }
    cfgs[1].issueWidth = 1;  // an "ooo" cell narrower than its fetch
    cfgs[5].issueWidth = 16; // and one wider
    cfgs[4].issueWidth = 3;  // ignored by a "pipeline" cell
    for (auto variant : {Variant::Scalar, Variant::Unaligned}) {
        auto records =
            kernelRecords({KernelId::ChromaMc, 8, false}, variant, 4);
        expectBitIdentical(cfgs, records,
                           "mixed/" +
                               std::string(h264::variantName(variant)));
    }
}

TEST(BatchedReplay, StoreSetAliasingThroughTinySsit)
{
    auto records = storeSetAliasRecords(0x40000000ull, 300);
    std::vector<CoreConfig> cfgs;
    for (int log2 : {1, 2, 10}) {
        for (int p = 1; p < 3; ++p) {
            CoreConfig c = CoreConfig::preset(p);
            c.name = c.name + "-ssit" + std::to_string(log2);
            c.model = "ooo";
            c.storeSetLog2 = log2;
            c.memReplayPenalty = 3 + log2;
            cfgs.push_back(c);
        }
    }
    cfgs.push_back(CoreConfig::fourWayOoO());  // a "pipeline" cell
    expectBitIdentical(cfgs, records, "store-set");

    // The stream must actually exercise speculation and training: a
    // one-bit SSIT (a single set id) stops speculating after its first
    // violation, larger tables train more than one pair.
    for (std::size_t i = 0; i + 1 < cfgs.size(); ++i) {
        OoOPipelineSim oracle(cfgs[i]);
        runOracle(oracle, records);
        EXPECT_GE(oracle.memOrderReplays(),
                  cfgs[i].storeSetLog2 == 1 ? 1u : 2u)
            << cfgs[i].name;
    }
}

TEST(BatchedReplay, SingleCellGrid)
{
    auto records =
        kernelRecords({KernelId::Sad, 16, false}, Variant::Altivec, 4);
    expectBitIdentical({CoreConfig::fourWayOoO()}, records, "1-cell");
}

TEST(BatchedReplay, FactoryModelsMatchOracles)
{
    // makeTimingModel returns the batched engine at one cell for
    // either backend; emulation feeds it through append(), one record
    // at a time, so that is the path compared here. finalize() is the
    // one-cell finalizeAll().
    auto records =
        kernelRecords({KernelId::ChromaMc, 8, false}, Variant::Unaligned, 4);
    for (int i = 0; i < 6; ++i) {
        CoreConfig cfg = CoreConfig::preset(i % 3);
        cfg.model = timing::timingModelNames()[std::size_t(i / 3)];
        auto model = timing::makeTimingModel(cfg);
        ASSERT_EQ(model->cellCount(), 1);
        for (const auto &rec : records)
            model->append(rec);
        const auto got = model->finalize();
        EXPECT_EQ(got.core, cfg.name);
        const auto want = perCellResults({cfg}, records);
        expectFieldsIdentical(want[0], got,
                              "factory " + cfg.name + " " + cfg.model);
        expectFieldsIdentical(got, model->finalize(), "idempotent");
        expectFieldsIdentical(got, model->finalizeAll().front(),
                              "finalizeAll");
    }
}

TEST(BatchedReplay, DuplicateConfigsProduceIdenticalCells)
{
    auto records =
        kernelRecords({KernelId::Idct, 8, false}, Variant::Scalar, 3);
    auto cfg = CoreConfig::eightWayOoO();
    const std::vector<CoreConfig> cfgs = {cfg, cfg, cfg};
    auto got = batchedResults(cfgs, records);
    ASSERT_EQ(got.size(), 3u);
    // All duplicates identical to each other and to the oracle.
    auto want = perCellResults({cfg}, records);
    for (std::size_t i = 0; i < got.size(); ++i)
        expectFieldsIdentical(want[0], got[i],
                              "dup cell " + std::to_string(i));
}

TEST(BatchedReplay, InflightSpansReadyRingBoundary)
{
    // Regression companion to Pipeline.ReadyRingScalesWithInflight:
    // a 2048-deep window over a 6000-long serial chain wraps the 1024
    // ready-ring floor; the batched engine must size its per-cell
    // ring exactly like PipelineSim and stay bit-identical while a
    // small-window cell shares the same pass.
    CoreConfig big = CoreConfig::fourWayOoO();
    big.name = "big-window";
    big.inflight = 2048;
    big.issueQ = 4096;
    big.gprPhys = 4096;
    CoreConfig small = CoreConfig::twoWayInOrder();
    auto records = chainRecords(6000);
    expectBitIdentical({big, small}, records, "ring-boundary");

    // Sanity on the oracle itself: a serial chain cannot retire in
    // fewer cycles than its length (the PR 3 aliasing symptom).
    auto want = perCellResults({big}, records);
    EXPECT_GE(want[0].cycles, std::uint64_t(records.size()));
}

TEST(BatchedReplay, SingleReadPortSerializedBanksTerminates)
{
    // Regression: a line-crossing load on a serialized-bank machine
    // demanded a second read port even when the config has only one,
    // making the load permanently unissuable - PipelineSim::feed's
    // backpressure loop then spun forever. (Unreachable from the
    // paper presets, which pair parallelBanks with >= 2 ports; the
    // randomized differential grids here flushed it out.) A
    // single-ported core now serializes the second bank access, and
    // both engines must agree on the resulting timing.
    CoreConfig c = CoreConfig::twoWayInOrder();
    c.name = "1-port-serial-banks";
    c.mem.parallelBanks = false;
    ASSERT_EQ(c.dReadPorts, 1);
    auto records = kernelRecords({KernelId::ChromaMc, 8, false},
                                 Variant::Unaligned, 4);
    expectBitIdentical({c, CoreConfig::fourWayOoO()}, records,
                       "serial-banks");
}

TEST(BatchedReplay, AppendMatchesAppendBlockAcrossChunkBoundaries)
{
    auto records =
        kernelRecords({KernelId::LumaMc, 16, false}, Variant::Altivec, 2);
    ASSERT_GT(records.size(), 512u);  // spans multiple 256-rec chunks
    const std::vector<CoreConfig> cfgs = {CoreConfig::twoWayInOrder(),
                                          CoreConfig::fourWayOoO()};

    auto blockWise = batchedResults(cfgs, records);

    // One record at a time through the TraceSink hook.
    BatchedPipelineSim oneByOne(cfgs);
    for (const auto &rec : records)
        oneByOne.append(rec);
    auto single = oneByOne.finalizeAll();

    // Deliberately awkward split sizes straddling the 256 chunk size.
    BatchedPipelineSim ragged(cfgs);
    std::size_t off = 0, step = 1;
    while (off < records.size()) {
        std::size_t n = std::min(step, records.size() - off);
        ragged.appendBlock(records.data() + off, n);
        off += n;
        step = step * 3 + 1;  // 1, 4, 13, 40, 121, 364, ...
    }
    auto raggedRes = ragged.finalizeAll();

    ASSERT_EQ(blockWise.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        expectFieldsIdentical(blockWise[i], single[i],
                              "append() cell " + std::to_string(i));
        expectFieldsIdentical(blockWise[i], raggedRes[i],
                              "ragged cell " + std::to_string(i));
    }
}

TEST(BatchedReplay, RejectsRecordsOutOfIdOrder)
{
    // A record that waits on itself or on a younger id can never
    // issue, and the engine would spin in its backpressure loop; the
    // trace wire format carries any dep, so the engine checks ids
    // strictly increase and every dep is older than its record.
    const auto good = chainRecords(2000);
    struct Case {
        const char *name;
        void (*edit)(InstrRecord &rec, const InstrRecord &prev);
    };
    const Case cases[] = {
        {"self dependence",
         [](InstrRecord &rec, const InstrRecord &) {
             rec.deps[1] = rec.id;
         }},
        {"younger dependence",
         [](InstrRecord &rec, const InstrRecord &) {
             rec.deps[2] = rec.id + 3;
         }},
        {"repeated id",
         [](InstrRecord &rec, const InstrRecord &prev) {
             rec.id = prev.id;
             rec.deps[0] = 0;
         }},
        {"falling id",
         [](InstrRecord &rec, const InstrRecord &) {
             rec.id = 5;
             rec.deps[0] = 0;
         }},
    };
    const std::vector<CoreConfig> cfgs = {CoreConfig::fourWayOoO()};
    const auto want = batchedResults(cfgs, good);
    const std::size_t at = 1000;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        auto records = good;
        c.edit(records[at], records[at - 1]);
        BatchedPipelineSim blockWise(cfgs);
        EXPECT_THROW(blockWise.appendBlock(records.data(), records.size()),
                     std::invalid_argument);

        // Nothing of a rejected block is fed: the good record in its
        // place continues the stream.
        BatchedPipelineSim oneByOne(cfgs);
        for (std::size_t i = 0; i < at; ++i)
            oneByOne.append(records[i]);
        EXPECT_THROW(oneByOne.append(records[at]), std::invalid_argument);
        for (std::size_t i = at; i < good.size(); ++i)
            oneByOne.append(good[i]);
        expectFieldsIdentical(want[0], oneByOne.finalizeAll()[0],
                              "after rejection");
    }
}

TEST(BatchedReplay, EmptyStreamFinalizes)
{
    const std::vector<CoreConfig> cfgs = {CoreConfig::fourWayOoO(),
                                          CoreConfig::twoWayInOrder()};
    auto got = batchedResults(cfgs, {});
    auto want = perCellResults(cfgs, {});
    ASSERT_EQ(got.size(), 2u);
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].instrs, 0u);
        expectFieldsIdentical(want[i], got[i],
                              "empty cell " + std::to_string(i));
    }
}

TEST(BatchedReplay, FinalizeAllIsIdempotent)
{
    auto records =
        kernelRecords({KernelId::Sad, 8, false}, Variant::Scalar, 2);
    const std::vector<CoreConfig> cfgs = {CoreConfig::fourWayOoO()};
    BatchedPipelineSim batch(cfgs);
    batch.appendBlock(records.data(), records.size());
    auto first = batch.finalizeAll();
    auto second = batch.finalizeAll();
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectFieldsIdentical(first[i], second[i], "idempotent");
}

TEST(FieldRelevance, UnreadFieldsNeverChangeResults)
{
    // Streams with different class coverage: no unaligned vector
    // records at all (Altivec, scalar), unaligned loads without
    // unaligned stores (SAD), and both, plus store-set speculation.
    struct Stream {
        std::string name;
        std::vector<InstrRecord> records;
        trace::InstrMix mix;
    };
    std::vector<Stream> streams;
    auto addStream = [&streams](std::string name,
                                std::vector<InstrRecord> records) {
        trace::InstrMix mix;
        for (const auto &rec : records)
            mix.add(rec);
        streams.push_back({std::move(name), std::move(records), mix});
    };
    addStream("sad16/altivec",
              kernelRecords({KernelId::Sad, 16, false}, Variant::Altivec, 3));
    addStream("luma8/altivec", kernelRecords({KernelId::LumaMc, 8, false},
                                             Variant::Altivec, 2));
    addStream("idct4/scalar",
              kernelRecords({KernelId::Idct, 4, false}, Variant::Scalar, 3));
    addStream("sad16/unaligned", kernelRecords({KernelId::Sad, 16, false},
                                               Variant::Unaligned, 3));
    addStream("store-set", storeSetAliasRecords(0x40000000ull, 120));
    ASSERT_EQ(streams[0].mix.count(InstrClass::VecLoadU), 0u);
    ASSERT_GT(streams[0].mix.count(InstrClass::VecLoad), 0u);
    ASSERT_EQ(streams[1].mix.count(InstrClass::VecStoreU), 0u);
    ASSERT_GT(streams[1].mix.count(InstrClass::VecStore), 0u);
    ASSERT_GT(streams[3].mix.count(InstrClass::VecLoadU), 0u);
    ASSERT_EQ(streams[3].mix.count(InstrClass::VecStoreU), 0u);

    int withRelevance = 0;
    for (const timing::CoreConfigField &f : timing::coreConfigFields()) {
        if (f.relevance.classes == 0 && f.relevance.cells == nullptr)
            continue;
        ++withRelevance;
        int cases = 0;
        for (const Stream &st : streams) {
            for (std::uint64_t seed : {7u, 20261017u}) {
                std::mt19937_64 rng(seed + std::uint64_t(withRelevance));
                // Up to three random cells that do not read the field,
                // each at the field's bounds and one value in between,
                // against the oracle of the cell's canonical config.
                std::vector<CoreConfig> canonical;
                std::vector<CoreConfig> perturbed;
                std::vector<std::size_t> canonicalOf;
                for (int tries = 0; tries < 64 && canonical.size() < 3;
                     ++tries) {
                    const CoreConfig base = randomConfig(rng, tries);
                    if (f.relevance.readBy(base, st.mix))
                        continue;
                    canonical.push_back(timing::canonicalConfig(base, st.mix));
                    const long long lo = f.lo;
                    const long long hi = f.hi;
                    const long long mid =
                        lo + std::int64_t(rng() % std::uint64_t(hi - lo + 1));
                    for (long long v : {lo, hi, mid}) {
                        CoreConfig cell = base;
                        f.set(cell, v);
                        cell.name += "/" + std::string(f.name) + "=" +
                            std::to_string(v);
                        ASSERT_NO_THROW(cell.validate()) << cell.name;
                        ASSERT_EQ(timing::canonicalConfig(cell, st.mix),
                                  canonical.back())
                            << cell.name;
                        perturbed.push_back(cell);
                        canonicalOf.push_back(canonical.size() - 1);
                    }
                }
                if (canonical.empty())
                    continue;
                ++cases;
                const auto want = perCellResults(canonical, st.records);
                const auto got = batchedResults(perturbed, st.records);
                for (std::size_t i = 0; i < got.size(); ++i) {
                    timing::SimResult w = want[canonicalOf[i]];
                    w.core = perturbed[i].name;
                    expectFieldsIdentical(w, got[i],
                                          st.name + " " + perturbed[i].name +
                                              " (" + perturbed[i].model + ")");
                }
            }
        }
        EXPECT_GT(cases, 0) << f.name << ": relevance set never exercised";
    }
    // The two unaligned-latency fields and the four model-only ones.
    EXPECT_EQ(withRelevance, 6);
}

TEST(PipelineTwin, NoBlockedLoadMeansOoOEqualsPipeline)
{
    // The runner copies an "ooo" cell's result from its pipeline twin
    // when the twin counted no blocked load. That is sound only if the
    // two backends part nowhere else: on random streams and kernel
    // traces, every such twin's "pipeline" oracle (and engine cell)
    // must equal the "ooo" oracle of its preimage on every counter.
    struct Stream {
        std::string name;
        std::vector<InstrRecord> records;
        trace::InstrMix mix;
    };
    std::vector<Stream> streams;
    auto addStream = [&streams](std::string name,
                                std::vector<InstrRecord> records) {
        trace::InstrMix mix;
        for (const auto &rec : records)
            mix.add(rec);
        streams.push_back({std::move(name), std::move(records), mix});
    };
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        for (int hotPct : {0, 1, 25}) {
            addStream("random" + std::to_string(seed) + "/hot" +
                          std::to_string(hotPct),
                      randomRecords(seed * 7919 + std::uint64_t(hotPct),
                                    1500, hotPct));
        }
    }
    addStream("luma16/unaligned", kernelRecords({KernelId::LumaMc, 16, false},
                                                Variant::Unaligned, 2));
    addStream("idct4/unaligned", kernelRecords({KernelId::Idct, 4, false},
                                               Variant::Unaligned, 4));
    addStream("chroma8/unaligned",
              kernelRecords({KernelId::ChromaMc, 8, false},
                            Variant::Unaligned, 3));
    addStream("sad16/unaligned", kernelRecords({KernelId::Sad, 16, false},
                                               Variant::Unaligned, 3));
    addStream("luma8/altivec", kernelRecords({KernelId::LumaMc, 8, false},
                                             Variant::Altivec, 2));

    int unblocked = 0;
    int blocked = 0;
    int noTwin = 0;
    std::uint64_t seed = 20261017;
    for (const Stream &st : streams) {
        std::mt19937_64 rng(seed++);
        std::vector<CoreConfig> preimages;
        std::vector<CoreConfig> twins;
        for (int k = 0; k < 9; ++k) {
            CoreConfig c = randomConfig(rng, k);
            c.model = "ooo";
            // issueWidth 0, = fetchWidth, and != fetchWidth (no twin).
            c.issueWidth = k % 3 == 0   ? 0
                : k % 3 == 1            ? c.fetchWidth
                                        : c.fetchWidth % 8 + 1;
            const auto twin = timing::pipelineTwin(c, st.mix);
            if (k % 3 == 2) {
                EXPECT_FALSE(twin) << st.name << " " << c.name;
                ++noTwin;
                continue;
            }
            ASSERT_TRUE(twin) << st.name << " " << c.name;
            EXPECT_EQ(twin->model, "pipeline");
            EXPECT_TRUE(twin->outOfOrder);
            EXPECT_EQ(timing::canonicalConfig(*twin, st.mix), *twin);
            // A "pipeline" config is nobody's preimage.
            EXPECT_FALSE(timing::pipelineTwin(*twin, st.mix));
            preimages.push_back(c);
            twins.push_back(*twin);
        }
        BatchedPipelineSim batch(twins);
        batch.appendBlock(st.records.data(), st.records.size());
        const auto engine = batch.finalizeAll();
        for (std::size_t i = 0; i < twins.size(); ++i) {
            const std::string label = st.name + " " + preimages[i].name;
            if (batch.work(int(i)).blockedLoads != 0) {
                ++blocked;
                continue;
            }
            ++unblocked;
            timing::SimResult want =
                runOracle(OoOPipelineSim(preimages[i]), st.records);
            want.core.clear();
            expectFieldsIdentical(want, runOracle(PipelineSim(twins[i]),
                                                  st.records),
                                  label + " (pipeline oracle)");
            expectFieldsIdentical(want, engine[i], label + " (engine)");
        }
    }
    // Both outcomes occur, each in many cases.
    EXPECT_GT(unblocked, 30);
    EXPECT_GT(blocked, 5);
    EXPECT_EQ(noTwin, 3 * int(streams.size()));
}

TEST(PipelineTwin, AliasingStreamBlocksAndBackendsDiffer)
{
    // Non-vacuity: on the store-set aliasing stream every twin counts
    // blocked loads, and the "ooo" preimage really does time
    // differently (it speculates past the blocking stores).
    const auto records = storeSetAliasRecords(0x40000000ull, 300);
    trace::InstrMix mix;
    for (const auto &rec : records)
        mix.add(rec);
    for (int p = 1; p < 3; ++p) {
        for (int log2 : {2, 10}) {
            CoreConfig c = CoreConfig::preset(p);
            c.name += "-ssit" + std::to_string(log2);
            c.model = "ooo";
            c.storeSetLog2 = log2;
            const auto twin = timing::pipelineTwin(c, mix);
            ASSERT_TRUE(twin) << c.name;
            BatchedPipelineSim batch({*twin});
            batch.appendBlock(records.data(), records.size());
            const timing::SimResult got = batch.finalizeAll().front();
            EXPECT_GT(batch.work(0).blockedLoads, 0u) << c.name;
            const timing::SimResult ooo =
                runOracle(OoOPipelineSim(c), records);
            const timing::SimResult pipe =
                runOracle(PipelineSim(*twin), records);
            bool differ = false;
            for (const auto &f : core::simResultFields())
                differ = differ || ooo.*(f.member) != pipe.*(f.member);
            EXPECT_TRUE(differ) << c.name;
            EXPECT_EQ(got.cycles, pipe.cycles) << c.name;
        }
    }
}

TEST(IdleJump, SkipsAMissBehindLoadsWaitingOnOlderStores)
{
    // While a memory miss pins the ROB head, the loads behind it wait
    // on older stores (a partial overlap, and a store-set wait in the
    // "ooo" cell) that drain only at retire: no cycle of the miss moves
    // anything but the realignment pipe's forward, so the jump skips
    // nearly all of it. A two-entry store queue holds one group's
    // stores, so each group dispatches during the previous miss, and
    // the "ooo" wait on its containing store must end at that store's
    // fwdReady, or the next miss would issue late.
    CoreConfig pipe = CoreConfig::fourWayOoO();
    pipe.storeQ = 2;
    pipe.lat.unalignedStoreExtra = 4;
    CoreConfig ooo = pipe;
    ooo.name += "-ooo";
    ooo.model = "ooo";
    const std::vector<CoreConfig> cfgs = {pipe, ooo};
    const int groups = 40;
    const auto records = storeWaitRecords(groups);
    expectBitIdentical(cfgs, records, "store waits");

    BatchedPipelineSim batch(cfgs);
    batch.appendBlock(records.data(), records.size());
    const auto sims = batch.finalizeAll();
    const std::uint64_t misses =
        std::uint64_t(groups) * std::uint64_t(pipe.mem.memLatency);
    for (int i = 0; i < batch.cellCount(); ++i) {
        SCOPED_TRACE(cfgs[std::size_t(i)].name);
        const auto &w = batch.work(i);
        EXPECT_GE(sims[std::size_t(i)].l2Misses, std::uint64_t(groups));
        EXPECT_GT(w.storeWaits, 0u);
        EXPECT_GT(w.idleJumpedCycles, misses * 9 / 10);
        EXPECT_EQ(w.executedCycles + w.idleJumpedCycles,
                  sims[std::size_t(i)].cycles);
    }
}

TEST(IdleJump, OoOStepsAboutAsFewCyclesAsItsPipelineTwin)
{
    // On kernels whose loads wait on older stores, an "ooo" cell and
    // its pipeline twin simulate about the same cycles; a store-set
    // wait is a retry the jump passes over like the twin's store wait,
    // so neither steps many more cycles one by one than the other.
    for (const KernelSpec &spec : {KernelSpec{KernelId::Sad, 4, false},
                                   KernelSpec{KernelId::ChromaMc, 8, false}}) {
        SCOPED_TRACE(spec.name());
        const auto records = kernelRecords(spec, Variant::Unaligned, 16);
        trace::InstrMix mix;
        for (const auto &rec : records)
            mix.add(rec);
        CoreConfig ooo = CoreConfig::fourWayOoO();
        ooo.model = "ooo";
        const auto twin = timing::pipelineTwin(ooo, mix);
        ASSERT_TRUE(twin);
        const std::vector<CoreConfig> cfgs = {ooo, *twin};
        expectBitIdentical(cfgs, records, spec.name());

        BatchedPipelineSim batch(cfgs);
        batch.appendBlock(records.data(), records.size());
        batch.finalizeAll();
        EXPECT_GT(batch.work(1).blockedLoads, 0u);
        EXPECT_LE(batch.work(0).executedCycles * 10,
                  batch.work(1).executedCycles * 11)
            << "twin " << batch.work(1).executedCycles;
    }
}
