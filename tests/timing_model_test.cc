/**
 * @file
 * Timing backend tests: the model registry (timing::timingModelNames,
 * next to CoreConfig::model) and the engine factories, the one-cell
 * BatchedPipelineSim::finalize(), the cross-model stream-pure
 * differential harness, the shared line-crossing-load gate, and the
 * ooo backend's own mechanisms (store-set prediction, decoupled issue
 * width, memBW throttle).
 *
 * The cross-model harness is the model-vs-model analogue of
 * batched_replay_test: backends may (must, eventually) disagree on
 * cycles, but every stream-pure counter - instruction counts, branch
 * counts, mispredict bits, unaligned-op counts - is a pure function
 * of the record stream and must be identical across "pipeline" and
 * "ooo" on the same seeded kernel traces, from 1 thread to N, cold
 * store and warm.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/result.hh"
#include "core/sweep.hh"
#include "oracles/ooo_pipeline.hh"
#include "oracles/pipeline.hh"
#include "timing/batched_pipeline.hh"
#include "timing/config.hh"
#include "timing/model.hh"
#include "trace/emitter.hh"
#include "trace/trace_buffer.hh"
#include "vmx/buffer.hh"

using namespace uasim;
using core::KernelBench;
using core::KernelSpec;
using core::SweepPlan;
using core::SweepRunner;
using h264::KernelId;
using h264::Variant;
using timing::CoreConfig;
using trace::InstrClass;
using trace::InstrRecord;

namespace {

/// Record @p execs executions of a kernel into a plain record vector.
std::vector<InstrRecord>
kernelRecords(const KernelSpec &spec, Variant variant, int execs)
{
    trace::TraceBuffer sink;
    KernelBench bench(spec);
    bench.recordTrace(variant, execs, sink);
    return sink.records();
}

/// Feed @p records into a fresh one-cell engine of backend @p model.
timing::SimResult
runModel(const std::string &model, CoreConfig cfg,
         const std::vector<InstrRecord> &records)
{
    cfg.model = model;
    timing::BatchedPipelineSim sim({cfg});
    sim.appendBlock(records.data(), records.size());
    return sim.finalize();
}

/// Counters that are pure functions of the record stream: identical
/// across backends by the engine's contract. (lineCrossings is
/// stream-pure only on storeless streams - store-to-load forwarding
/// elides cache accesses differently per backend - so it is asserted
/// separately where the stream allows it.)
void
expectStreamInvariantsEqual(const timing::SimResult &a,
                            const timing::SimResult &b,
                            const std::string &label)
{
    EXPECT_EQ(a.instrs, b.instrs) << label;
    EXPECT_EQ(a.branches, b.branches) << label;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << label;
    EXPECT_EQ(a.unalignedVecOps, b.unalignedVecOps) << label;
}

} // namespace

TEST(TimingModelFactory, RegistryListsBothBackends)
{
    const auto &names = timing::timingModelNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "pipeline");
    EXPECT_EQ(names[1], "ooo");
    EXPECT_TRUE(timing::isTimingModel("pipeline"));
    EXPECT_TRUE(timing::isTimingModel("ooo"));
    EXPECT_FALSE(timing::isTimingModel(""));
    EXPECT_FALSE(timing::isTimingModel("turandot"));
}

TEST(TimingModelFactory, SelectsBackendByConfigModel)
{
    CoreConfig cfg = CoreConfig::fourWayOoO();
    for (const auto &name : timing::timingModelNames()) {
        cfg.model = name;
        auto sim = timing::makeTimingModel(cfg);
        ASSERT_NE(sim, nullptr) << name;
        EXPECT_EQ(sim->cellCount(), 1) << name;
        EXPECT_EQ(sim->finalize().core, cfg.name) << name;
        // finalize() is the one-cell finalizeAll(): at any other cell
        // count it is a caller error, an empty engine included.
        for (std::size_t n : {0, 2, 3}) {
            auto batch = timing::makeBatchedTimingModel(
                std::vector<CoreConfig>(n, cfg));
            EXPECT_EQ(batch->cellCount(), int(n)) << name;
            EXPECT_EQ(batch->finalizeAll().size(), n) << name;
            EXPECT_THROW((void)batch->finalize(), std::logic_error)
                << name << " at " << n << " cells";
        }
    }
    cfg.model = "no-such-model";
    EXPECT_THROW((void)timing::makeTimingModel(cfg),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)timing::makeBatchedTimingModel({cfg}),
        std::invalid_argument);
}

TEST(TimingModelFactory, EmptyStreamFinalizes)
{
    for (const auto &name : timing::timingModelNames()) {
        CoreConfig cfg = CoreConfig::twoWayInOrder();
        cfg.model = name;
        timing::BatchedPipelineSim sim({cfg});
        auto r = sim.finalize();
        EXPECT_EQ(r.instrs, 0u) << name;
        EXPECT_EQ(r.cycles, 0u) << name;
    }
}

TEST(TimingModelCrossDiff, StreamInvariantsOnSeededKernelTraces)
{
    const KernelSpec specs[] = {
        {KernelId::Sad, 16, false},
        {KernelId::Idct, 4, false},
        {KernelId::LumaMc, 8, false},
    };
    const Variant variants[] = {Variant::Scalar, Variant::Altivec,
                                Variant::Unaligned};
    for (const auto &spec : specs) {
        for (Variant v : variants) {
            auto records = kernelRecords(spec, v, 3);
            ASSERT_FALSE(records.empty());
            for (int p = 0; p < 3; ++p) {
                CoreConfig cfg = CoreConfig::preset(p);
                auto base = runModel("pipeline", cfg, records);
                auto ooo = runModel("ooo", cfg, records);
                const std::string label = spec.name() + "/" +
                    std::string(h264::variantName(v)) + "/" +
                    cfg.name;
                expectStreamInvariantsEqual(base, ooo, label);
                EXPECT_EQ(ooo.instrs, records.size()) << label;
                EXPECT_GT(ooo.cycles, 0u) << label;
            }
        }
    }
}

TEST(TimingModelCrossDiff, BatchedMixedGroupMatchesOracles)
{
    // A mixed-model group runs on the one batched engine; per-cell
    // results must be bit-identical to the reference oracle of each
    // cell's model.
    auto records =
        kernelRecords({KernelId::Sad, 16, false}, Variant::Unaligned, 2);
    std::vector<CoreConfig> cfgs;
    for (int p = 0; p < 3; ++p) {
        CoreConfig cfg = CoreConfig::preset(p);
        cfg.model = (p % 2 == 0) ? "ooo" : "pipeline";
        cfg.bpredLog2Entries = 10 + p;
        cfgs.push_back(cfg);
    }
    timing::BatchedPipelineSim batch(cfgs);
    EXPECT_EQ(batch.cellCount(), 3);
    batch.appendBlock(records.data(), records.size());
    auto got = batch.finalizeAll();
    ASSERT_EQ(got.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        timing::SimResult want;
        if (cfgs[i].model == "ooo") {
            timing::OoOPipelineSim sim(cfgs[i]);
            for (const auto &rec : records)
                sim.feed(rec);
            want = sim.finalize();
        } else {
            timing::PipelineSim sim(cfgs[i]);
            for (const auto &rec : records)
                sim.feed(rec);
            want = sim.finalize();
        }
        EXPECT_EQ(want.core, got[i].core);
        for (const auto &f : core::simResultFields())
            EXPECT_EQ(want.*(f.member), got[i].*(f.member))
                << cfgs[i].model << " cell " << i << ": counter "
                << f.name;
    }
}

TEST(TimingModelCrossDiff, SweepRunnerThreadsAndStore)
{
    // The acceptance harness: the same plan, per backend, at 1 and 4
    // threads, cold store and warm. Within one backend every run is
    // bit-identical; across backends the stream invariants agree.
    const std::string dir = ::testing::TempDir() + "/tm_store";
    std::filesystem::remove_all(dir);

    auto makePlan = [] {
        SweepPlan plan;
        plan.addTrace(core::kernelTraceJob({KernelId::Sad, 16, false},
                                           Variant::Unaligned, 2));
        plan.addTrace(core::kernelTraceJob({KernelId::Idct, 4, false},
                                           Variant::Altivec, 2));
        plan.addConfig("2w", CoreConfig::twoWayInOrder());
        plan.addConfig("8w", CoreConfig::eightWayOoO());
        plan.crossProduct();
        return plan;
    };

    struct Run {
        std::string model;
        int threads;
        bool store;
    };
    const Run runs[] = {
        {"pipeline", 1, false}, {"pipeline", 4, false},
        {"pipeline", 1, true},  {"pipeline", 4, true},
        {"ooo", 1, false},      {"ooo", 4, false},
        {"ooo", 1, true},       {"ooo", 4, true},
    };
    std::vector<std::vector<core::SweepCellResult>> all;
    for (const Run &run : runs) {
        SweepPlan plan = makePlan();
        SweepRunner runner(run.threads);
        runner.setTimingModel(run.model);
        if (run.store)
            runner.attachStore(dir);
        all.push_back(runner.run(plan));
    }
    // The first pipeline run is the reference; 4-thread, cold-store
    // (first store runs record through; the second pair replays warm)
    // and warm-store runs must match it bit-exactly.
    for (std::size_t r = 1; r < 4; ++r) {
        ASSERT_EQ(all[0].size(), all[r].size());
        for (std::size_t i = 0; i < all[0].size(); ++i) {
            for (const auto &f : core::simResultFields())
                EXPECT_EQ(all[0][i].sim.*(f.member),
                          all[r][i].sim.*(f.member))
                    << "pipeline run " << r << " cell " << i << ": "
                    << f.name;
        }
    }
    // Same within the ooo runs.
    for (std::size_t r = 5; r < 8; ++r) {
        ASSERT_EQ(all[4].size(), all[r].size());
        for (std::size_t i = 0; i < all[4].size(); ++i) {
            for (const auto &f : core::simResultFields())
                EXPECT_EQ(all[4][i].sim.*(f.member),
                          all[r][i].sim.*(f.member))
                    << "ooo run " << r << " cell " << i << ": "
                    << f.name;
        }
    }
    // Across backends: stream invariants and replayed totals agree.
    ASSERT_EQ(all[0].size(), all[4].size());
    for (std::size_t i = 0; i < all[0].size(); ++i) {
        expectStreamInvariantsEqual(
            all[0][i].sim, all[4][i].sim,
            "cell " + std::to_string(i));
        EXPECT_EQ(all[0][i].traceInstrs, all[4][i].traceInstrs);
        EXPECT_NE(all[0][i].sim.cycles, 0u);
    }
    std::filesystem::remove_all(dir);
}

TEST(CrossingGate, SharedHelperEncodesThePortRule)
{
    CoreConfig cfg = CoreConfig::twoWayInOrder();
    cfg.mem.parallelBanks = false;
    cfg.dReadPorts = 1;
    EXPECT_FALSE(cfg.crossingLoadNeedsSecondPort());
    cfg.dReadPorts = 2;
    EXPECT_TRUE(cfg.crossingLoadNeedsSecondPort());
    cfg.mem.parallelBanks = true;
    EXPECT_FALSE(cfg.crossingLoadNeedsSecondPort());
}

TEST(CrossingGate, OnePortConfigHandledIdenticallyInAllBackends)
{
    // Regression for the PR 5 deadlock: under serialized banks a
    // line-crossing load wants a second read port, but a 1-port core
    // has none to give - the shared CoreConfig helper makes every
    // backend serialize such loads in the load pipe instead of
    // retrying forever. A storeless stream keeps lineCrossings
    // stream-pure, so both backends must also count every crossing.
    // Synthetic line-aligned addresses (the sim never dereferences
    // them): every access straddles a 128-byte line boundary.
    const std::uint64_t base = 0x40000000ull;
    const int n = 300;
    std::vector<timing::SimResult> results;
    for (const auto &name : timing::timingModelNames()) {
        CoreConfig cfg = CoreConfig::twoWayInOrder();
        cfg.model = name;
        cfg.mem.parallelBanks = false;
        cfg.dReadPorts = 1;
        timing::BatchedPipelineSim sim({cfg});
        trace::Emitter em(sim);
        for (int i = 0; i < n; ++i) {
            em.emitMem(InstrClass::VecLoadU,
                       base + 128 * std::uint64_t(i % 64) + 120, 16,
                       std::source_location::current());
        }
        results.push_back(sim.finalize());
    }
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_EQ(r.instrs, std::uint64_t(n));      // no deadlock
        EXPECT_EQ(r.lineCrossings, std::uint64_t(n));
    }
    expectStreamInvariantsEqual(results[0], results[1], "1-port");
    EXPECT_EQ(results[0].lineCrossings, results[1].lineCrossings);
}

TEST(OoOBackend, StoreSetPredictorTrainsOnFirstViolation)
{
    // A load that aliases the store in front of it, same PCs every
    // iteration: the first encounter speculates (one ordering
    // violation), training merges the pair into a store set, and
    // every later instance waits instead of replaying.
    vmx::AlignedBuffer buf(4096, 0);
    const auto addr = reinterpret_cast<std::uint64_t>(buf.data());
    CoreConfig cfg = CoreConfig::eightWayOoO();
    cfg.model = "ooo";
    timing::OoOPipelineSim sim(cfg);
    trace::Emitter em(sim);
    const int iters = 200;
    for (int i = 0; i < iters; ++i) {
        // Partial overlap (store 8 bytes, load 16 across it) so the
        // load can never forward - only wait or speculate.
        em.emitMem(InstrClass::Store, addr + 4, 8,
                   std::source_location::current());
        em.emitMem(InstrClass::VecLoadU, addr, 16,
                   std::source_location::current());
        em.emit(InstrClass::IntAlu, std::source_location::current());
    }
    auto r = sim.finalize();
    EXPECT_EQ(r.instrs, std::uint64_t(3 * iters));
    EXPECT_GE(sim.memOrderReplays(), 1u);
    EXPECT_LT(sim.memOrderReplays(), std::uint64_t(iters) / 4);
}

TEST(OoOBackend, IssueWidthDecouplesFromFetchWidth)
{
    auto run = [](int issueWidth) {
        CoreConfig cfg = CoreConfig::eightWayOoO();
        cfg.model = "ooo";
        cfg.issueWidth = issueWidth;
        timing::BatchedPipelineSim sim({cfg});
        trace::Emitter em(sim);
        for (int i = 0; i < 4000; ++i)
            em.emit(InstrClass::IntAlu,
                    std::source_location::current());
        return sim.finalize();
    };
    auto narrow = run(1);
    auto wide = run(0);  // 0 = couple to fetchWidth (8)
    EXPECT_EQ(narrow.instrs, wide.instrs);
    EXPECT_GE(narrow.cycles, 4000u);  // 1 instruction per cycle max
    EXPECT_LT(wide.cycles, narrow.cycles / 2);
}

TEST(OoOBackend, OverlapsLoadsBeyondInOrderPipeline)
{
    // The mixed load/ALU chain of timing_test's in-order-vs-OoO case:
    // the ooo backend on an in-order config still schedules fully out
    // of order (it ignores outOfOrder/inorderLookahead), so it beats
    // the pipeline backend on the same 2-way machine.
    vmx::AlignedBuffer buf(8192, 0);
    const auto base = reinterpret_cast<std::uint64_t>(buf.data());
    trace::TraceBuffer sink;
    {
        trace::Emitter em(sink);
        trace::Dep prev{};
        for (int i = 0; i < 500; ++i) {
            auto ld = em.emitMem(InstrClass::Load,
                                 base + (i % 64) * 8, 8,
                                 std::source_location::current(),
                                 prev);
            prev = em.emit(InstrClass::IntAlu,
                           std::source_location::current(), ld);
            for (int k = 0; k < 4; ++k)
                em.emit(InstrClass::IntAlu,
                        std::source_location::current());
        }
    }
    CoreConfig cfg = CoreConfig::twoWayInOrder();
    // Strict in-order issue: the preset's lookahead of 2 already lets
    // the pipeline backend slip past a stalled load, which on this
    // narrow machine reaches the same bound as full reordering.
    cfg.inorderLookahead = 1;
    auto in_order = runModel("pipeline", cfg, sink.records());
    auto ooo = runModel("ooo", cfg, sink.records());
    expectStreamInvariantsEqual(in_order, ooo, "2w chain");
    EXPECT_LT(ooo.cycles, in_order.cycles);
}

TEST(MemBandwidth, ThrottleSlowsMissStreamsInBothBackends)
{
    // memBWBytesPerCycle serializes line fills on the memory bus; a
    // stream of independent far-apart misses gets slower as bandwidth
    // shrinks, in either backend, without touching stream counters.
    auto run = [](const std::string &model, int bw) {
        CoreConfig cfg = CoreConfig::eightWayOoO();
        cfg.model = model;
        cfg.mem.memBWBytesPerCycle = bw;
        timing::BatchedPipelineSim sim({cfg});
        trace::Emitter em(sim);
        for (int i = 0; i < 200; ++i) {
            em.emitMem(InstrClass::Load,
                       0x40000000ull + std::uint64_t(i) * 4096, 8,
                       std::source_location::current());
        }
        return sim.finalize();
    };
    for (const auto &model : timing::timingModelNames()) {
        auto unlimited = run(model, 0);
        auto esesc = run(model, 11);  // the esesc reference value
        auto trickle = run(model, 2);
        expectStreamInvariantsEqual(unlimited, trickle, model);
        EXPECT_GT(esesc.cycles, unlimited.cycles) << model;
        EXPECT_GT(trickle.cycles, esesc.cycles) << model;
    }
}

TEST(MemBandwidth, ZeroBandwidthIsBitIdenticalToPreThrottleModel)
{
    // The default (0 = unlimited) must not perturb any existing
    // result: the throttle only engages when configured.
    auto records =
        kernelRecords({KernelId::LumaMc, 16, false},
                      Variant::Altivec, 2);
    CoreConfig cfg = CoreConfig::fourWayOoO();
    cfg.mem.memBWBytesPerCycle = 0;
    auto a = runModel("pipeline", cfg, records);
    CoreConfig plain = CoreConfig::fourWayOoO();
    auto b = runModel("pipeline", plain, records);
    for (const auto &f : core::simResultFields())
        EXPECT_EQ(a.*(f.member), b.*(f.member)) << f.name;
}
