/**
 * @file
 * Tests for the "pipeline" timing backend: basic invariants, width
 * scaling, dependence serialization, load latency, store-to-load
 * forwarding, branch misprediction, unaligned-access latency, and the
 * branch predictor.
 *
 * Every case drives the production engine through
 * timing::makeTimingModel and checks each result against the
 * PipelineSim reference oracle counter for counter, so these cases
 * cover the engine that actually runs while the oracle pins the exact
 * cycles.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/result.hh"
#include "timing/branch_pred.hh"
#include "timing/model.hh"
#include "timing/pipeline.hh"
#include "trace/emitter.hh"
#include "trace/trace_io.hh"
#include "vmx/buffer.hh"
#include "vmx/scalarops.hh"
#include "vmx/vecops.hh"

using namespace uasim;
using timing::CoreConfig;
using timing::PipelineSim;
using trace::InstrClass;
using trace::InstrRecord;

namespace {

/**
 * Feed the stream @p gen emits into the production engine
 * (timing::makeTimingModel) and into the PipelineSim oracle, expect
 * every counter to agree, and return the production result. @p gen
 * must emit the same stream on every call.
 */
template <class Gen>
timing::SimResult
simulate(const CoreConfig &cfg, Gen &&gen)
{
    auto model = timing::makeTimingModel(cfg);
    gen(*model);
    const timing::SimResult got = model->finalize();

    PipelineSim oracle(cfg);
    gen(oracle);
    const timing::SimResult want = oracle.finalize();
    EXPECT_EQ(want.core, got.core);
    for (const auto &f : core::simResultFields())
        EXPECT_EQ(want.*(f.member), got.*(f.member))
            << cfg.name << ": counter " << f.name;
    return got;
}

/// Feed n independent instructions of one class.
timing::SimResult
runIndependent(const CoreConfig &cfg, InstrClass cls, int n)
{
    return simulate(cfg, [&](trace::TraceSink &sink) {
        trace::Emitter em(sink);
        for (int i = 0; i < n; ++i)
            em.emit(cls, std::source_location::current());
    });
}

/// Feed a serial dependence chain of n instructions.
timing::SimResult
runChain(const CoreConfig &cfg, InstrClass cls, int n)
{
    return simulate(cfg, [&](trace::TraceSink &sink) {
        trace::Emitter em(sink);
        trace::Dep prev{};
        for (int i = 0; i < n; ++i)
            prev = em.emit(cls, std::source_location::current(), prev);
    });
}

} // namespace

TEST(Pipeline, RetiresEverythingFed)
{
    for (int p = 0; p < 3; ++p) {
        auto r = runIndependent(CoreConfig::preset(p), InstrClass::IntAlu,
                                1000);
        EXPECT_EQ(r.instrs, 1000u) << r.core;
        EXPECT_GT(r.cycles, 0u);
    }
}

TEST(Pipeline, IpcNeverExceedsWidth)
{
    for (int p = 0; p < 3; ++p) {
        CoreConfig cfg = CoreConfig::preset(p);
        auto r = runIndependent(cfg, InstrClass::IntAlu, 5000);
        EXPECT_LE(r.ipc(), double(cfg.fetchWidth) + 1e-9) << r.core;
    }
}

TEST(Pipeline, WiderCoreIsFasterOnParallelWork)
{
    auto r2 = runIndependent(CoreConfig::twoWayInOrder(),
                             InstrClass::IntAlu, 4000);
    auto r4 = runIndependent(CoreConfig::fourWayOoO(),
                             InstrClass::IntAlu, 4000);
    auto r8 = runIndependent(CoreConfig::eightWayOoO(),
                             InstrClass::IntAlu, 4000);
    EXPECT_LT(r4.cycles, r2.cycles);
    EXPECT_LT(r8.cycles, r4.cycles);
}

TEST(Pipeline, FxUnitThroughputBindsIntAlu)
{
    // 2-way has 2 FX units: 4000 independent adds need >= 2000 cycles.
    auto r = runIndependent(CoreConfig::twoWayInOrder(),
                            InstrClass::IntAlu, 4000);
    EXPECT_GE(r.cycles, 2000u);
    EXPECT_LE(r.cycles, 2300u);  // and not much more
}

TEST(Pipeline, DependenceChainSerializes)
{
    CoreConfig cfg = CoreConfig::eightWayOoO();
    auto par = runIndependent(cfg, InstrClass::VecComplex, 1000);
    auto ser = runChain(cfg, InstrClass::VecComplex, 1000);
    // Chain: one per vecComplex latency (4); parallel: bound by the
    // 2 VCMPLX units.
    EXPECT_GE(ser.cycles, 4000u);
    EXPECT_LT(par.cycles, 1000u);
}

TEST(Pipeline, LoadLatencyAppearsInChains)
{
    CoreConfig cfg = CoreConfig::fourWayOoO();
    vmx::AlignedBuffer buf(256, 0);
    // Pointer-chase-like chain: load feeding the next load's address.
    const int n = 500;
    auto r = simulate(cfg, [&](trace::TraceSink &sink) {
        trace::Emitter em(sink);
        trace::Dep prev{};
        for (int i = 0; i < n; ++i) {
            prev = em.emitMem(InstrClass::Load,
                              reinterpret_cast<std::uint64_t>(buf.data()),
                              4, std::source_location::current(), prev);
        }
    });
    // Each hit costs the 4-cycle load-to-use latency.
    EXPECT_GE(r.cycles, std::uint64_t(n) * 4);
    EXPECT_LE(r.cycles, std::uint64_t(n) * 4 + 600);
}

TEST(Pipeline, UnalignedExtraLatencySlowsChains)
{
    vmx::AlignedBuffer buf(256, 4);  // unaligned base
    auto run = [&](int extra) {
        CoreConfig cfg = CoreConfig::fourWayOoO();
        cfg.lat.unalignedLoadExtra = extra;
        return simulate(cfg, [&](trace::TraceSink &sink) {
            trace::Emitter em(sink);
            trace::Dep prev{};
            for (int i = 0; i < 400; ++i) {
                prev = em.emitMem(
                    InstrClass::VecLoadU,
                    reinterpret_cast<std::uint64_t>(buf.data()), 16,
                    std::source_location::current(), prev);
            }
        });
    };
    auto base = run(0);
    auto plus2 = run(2);
    auto plus6 = run(6);
    EXPECT_GT(plus2.cycles, base.cycles + 700u);
    EXPECT_GT(plus6.cycles, plus2.cycles + 1500u);
    EXPECT_EQ(base.unalignedVecOps, 400u);
}

TEST(Pipeline, AlignedLvxuPaysNoPenalty)
{
    vmx::AlignedBuffer buf(256, 0);  // aligned base
    auto run = [&](int extra) {
        CoreConfig cfg = CoreConfig::fourWayOoO();
        cfg.lat.unalignedLoadExtra = extra;
        return simulate(cfg, [&](trace::TraceSink &sink) {
            trace::Emitter em(sink);
            trace::Dep prev{};
            for (int i = 0; i < 400; ++i) {
                prev = em.emitMem(
                    InstrClass::VecLoadU,
                    reinterpret_cast<std::uint64_t>(buf.data()), 16,
                    std::source_location::current(), prev);
            }
        });
    };
    EXPECT_EQ(run(0).cycles, run(6).cycles);
}

TEST(Pipeline, StoreToLoadForwarding)
{
    vmx::AlignedBuffer buf(256, 0);
    auto addr = reinterpret_cast<std::uint64_t>(buf.data());
    auto r = simulate(CoreConfig::fourWayOoO(), [&](trace::TraceSink &sink) {
        trace::Emitter em(sink);
        for (int i = 0; i < 100; ++i) {
            auto st = em.emitMem(InstrClass::Store, addr, 8,
                                 std::source_location::current());
            em.emitMem(InstrClass::Load, addr, 8,
                       std::source_location::current(), st);
        }
    });
    EXPECT_GE(r.storeForwards, 90u);
}

TEST(Pipeline, MispredictsStallFetch)
{
    CoreConfig cfg = CoreConfig::fourWayOoO();
    auto run = [&](bool random_pattern) {
        return simulate(cfg, [&](trace::TraceSink &sink) {
            trace::Emitter em(sink);
            std::uint64_t lcg = 12345;
            for (int i = 0; i < 2000; ++i) {
                bool taken;
                if (random_pattern) {
                    lcg = lcg * 6364136223846793005ull + 13;
                    taken = (lcg >> 40) & 1;
                } else {
                    taken = true;
                }
                em.emitBranch(taken, std::source_location::current());
                for (int k = 0; k < 3; ++k)
                    em.emit(InstrClass::IntAlu,
                            std::source_location::current());
            }
        });
    };
    auto predictable = run(false);
    auto random = run(true);
    EXPECT_LT(predictable.mispredictRate(), 0.02);
    EXPECT_GT(random.mispredictRate(), 0.3);
    EXPECT_GT(random.cycles, predictable.cycles * 2);
    EXPECT_GT(random.fetchStallCycles, predictable.fetchStallCycles);
}

TEST(Pipeline, InOrderSlowerThanOoOOnMixedChain)
{
    // Alternating long-latency loads and independent ALU work: OoO
    // overlaps them, in-order stalls.
    vmx::AlignedBuffer buf(8192, 0);
    auto run = [&](CoreConfig cfg) {
        cfg.units = {2, 1, 1, 1, 1, 1, 1};
        cfg.fetchWidth = 2;
        auto base = reinterpret_cast<std::uint64_t>(buf.data());
        return simulate(cfg, [&](trace::TraceSink &sink) {
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
        });
    };
    CoreConfig in_order = CoreConfig::twoWayInOrder();
    CoreConfig ooo = CoreConfig::fourWayOoO();
    ooo.name = "ooo2";
    auto r_in = run(in_order);
    auto r_ooo = run(ooo);
    EXPECT_LT(r_ooo.cycles, r_in.cycles);
}

TEST(Pipeline, MshrLimitThrottlesMisses)
{
    // Independent loads all missing to memory: more MSHRs -> more
    // memory-level parallelism -> fewer cycles.
    auto run = [&](int mshrs) {
        CoreConfig cfg = CoreConfig::fourWayOoO();
        cfg.missMax = mshrs;
        return simulate(cfg, [](trace::TraceSink &sink) {
            trace::Emitter em(sink);
            for (int i = 0; i < 200; ++i) {
                em.emitMem(InstrClass::Load,
                           0x40000000ull + std::uint64_t(i) * 4096, 8,
                           std::source_location::current());
            }
        });
    };
    auto few = run(1);
    auto many = run(8);
    EXPECT_GT(few.cycles, many.cycles * 3);
}

TEST(Pipeline, CacheStatsPlumbedThrough)
{
    auto r = simulate(CoreConfig::fourWayOoO(), [](trace::TraceSink &sink) {
        trace::Emitter em(sink);
        for (int i = 0; i < 64; ++i) {
            em.emitMem(InstrClass::Load,
                       0x1000ull + std::uint64_t(i % 4) * 131072, 8,
                       std::source_location::current());
        }
    });
    EXPECT_GT(r.l1dAccesses, 0u);
    EXPECT_GT(r.l1dMisses, 0u);
    EXPECT_LE(r.l1dMisses, r.l1dAccesses);
}

TEST(Pipeline, TableTwoPresets)
{
    auto c2 = CoreConfig::twoWayInOrder();
    EXPECT_FALSE(c2.outOfOrder);
    EXPECT_EQ(c2.fetchWidth, 2);
    EXPECT_EQ(c2.retireWidth, 4);
    EXPECT_EQ(c2.inflight, 80);
    EXPECT_EQ(c2.units.fx, 2);
    EXPECT_EQ(c2.dReadPorts, 1);
    EXPECT_EQ(c2.missMax, 2);

    auto c4 = CoreConfig::fourWayOoO();
    EXPECT_TRUE(c4.outOfOrder);
    EXPECT_EQ(c4.fetchWidth, 4);
    EXPECT_EQ(c4.retireWidth, 6);
    EXPECT_EQ(c4.inflight, 160);
    EXPECT_EQ(c4.units.ls, 2);
    EXPECT_EQ(c4.gprPhys, 80);

    auto c8 = CoreConfig::eightWayOoO();
    EXPECT_EQ(c8.fetchWidth, 8);
    EXPECT_EQ(c8.retireWidth, 12);
    EXPECT_EQ(c8.inflight, 255);
    EXPECT_EQ(c8.units.vperm, 2);
    EXPECT_EQ(c8.dReadPorts, 4);
}

TEST(Pipeline, UnitMapping)
{
    using timing::Unit;
    using timing::unitFor;
    EXPECT_EQ(unitFor(InstrClass::IntAlu), Unit::FX);
    EXPECT_EQ(unitFor(InstrClass::IntMul), Unit::FX);
    EXPECT_EQ(unitFor(InstrClass::Load), Unit::LS);
    EXPECT_EQ(unitFor(InstrClass::VecLoadU), Unit::LS);
    EXPECT_EQ(unitFor(InstrClass::Branch), Unit::BR);
    EXPECT_EQ(unitFor(InstrClass::VecSimple), Unit::VI);
    EXPECT_EQ(unitFor(InstrClass::VecPerm), Unit::VPERM);
    EXPECT_EQ(unitFor(InstrClass::VecComplex), Unit::VCMPLX);
}

TEST(Pipeline, DestRegFiles)
{
    using timing::destRegFile;
    using timing::RegFile;
    EXPECT_EQ(destRegFile(InstrClass::Load), RegFile::GPR);
    EXPECT_EQ(destRegFile(InstrClass::VecLoadU), RegFile::VPR);
    EXPECT_EQ(destRegFile(InstrClass::Store), RegFile::None);
    EXPECT_EQ(destRegFile(InstrClass::Branch), RegFile::None);
    EXPECT_EQ(destRegFile(InstrClass::FpAlu), RegFile::FPR);
}

TEST(Pipeline, OfflineTraceFileEqualsOnline)
{
    // The MET-style flow: record a trace to disk, replay it through a
    // fresh simulator, and get bit-identical results to feeding the
    // records online.
    vmx::AlignedBuffer buf(8192, 7);
    auto gen = [&](trace::TraceSink &sink) {
        trace::Emitter em(sink);
        vmx::ScalarOps so(em);
        vmx::VecOps vo(em);
        vmx::CPtr p = so.lip(buf.data());
        vmx::SInt acc = so.li(0);
        for (int i = 0; i < 400; ++i) {
            vmx::Vec v = vo.lvxu(p, (i * 48) % 4096);
            vmx::Vec w = vo.addu8(v, v);
            vo.stvxu(w, vmx::Ptr{buf.data() + 4096}, (i * 16) % 2048);
            acc = so.addi(acc, 1);
            so.loopBranch(i + 1 < 400);
        }
    };

    CoreConfig cfg = CoreConfig::fourWayOoO();
    cfg.lat.unalignedLoadExtra = 1;

    auto r_online = simulate(cfg, gen);

    std::string path = ::testing::TempDir() + "/uasim_offline.trace";
    {
        trace::FileSink file(path);
        gen(file);
    }
    auto r_offline = simulate(cfg, [&](trace::TraceSink &sink) {
        trace::TraceReader reader(path);
        reader.drainTo(sink);
    });
    std::remove(path.c_str());

    EXPECT_EQ(r_online.cycles, r_offline.cycles);
    EXPECT_EQ(r_online.instrs, r_offline.instrs);
    EXPECT_EQ(r_online.mispredicts, r_offline.mispredicts);
    EXPECT_EQ(r_online.l1dMisses, r_offline.l1dMisses);
    EXPECT_EQ(r_online.unalignedVecOps, r_offline.unalignedVecOps);
}

TEST(Pipeline, ReadyRingScalesWithInflight)
{
    // Regression for the fixed 1024-entry producer-ready ring: with a
    // scaled CoreConfig whose in-flight window exceeds it, two live
    // instructions aliased a slot and a waiting producer read as
    // "long retired" (ready), letting dependence chains issue early
    // and corrupting the timing. The ring is now sized from
    // cfg.inflight, so a serial chain can never finish in fewer
    // cycles than its length.
    CoreConfig cfg = CoreConfig::fourWayOoO();
    cfg.inflight = 2048;
    cfg.issueQ = 4096;
    cfg.gprPhys = 4096;
    const int n = 6000;
    auto r = runChain(cfg, InstrClass::IntAlu, n);
    EXPECT_EQ(r.instrs, std::uint64_t(n));
    EXPECT_GE(r.cycles, std::uint64_t(n));

    // Scaling only the window (not the machine width) must not make
    // a dependence-free stream slower.
    auto wide = runIndependent(cfg, InstrClass::IntAlu, n);
    auto base = runIndependent(CoreConfig::fourWayOoO(),
                               InstrClass::IntAlu, n);
    EXPECT_LE(wide.cycles, base.cycles);
}

TEST(Pipeline, PredictorSizeDefaultMatchesTableII)
{
    // The paper's predictor (4K-entry gshare) is shared by all three
    // Table II machines; making the size sweepable must not move the
    // default out from under the published figures.
    EXPECT_EQ(CoreConfig{}.bpredLog2Entries, 12);
    EXPECT_EQ(CoreConfig::twoWayInOrder().bpredLog2Entries, 12);
    EXPECT_EQ(CoreConfig::fourWayOoO().bpredLog2Entries, 12);
    EXPECT_EQ(CoreConfig::eightWayOoO().bpredLog2Entries, 12);
}

TEST(Pipeline, PredictorSizeIsSweepable)
{
    // bpredLog2Entries plumbs through CoreConfig into the model: a
    // 2-entry table cannot hold the history-disambiguated TTTN
    // pattern that the Table II-sized table learns almost perfectly.
    auto run = [](int log2) {
        CoreConfig cfg = CoreConfig::fourWayOoO();
        cfg.bpredLog2Entries = log2;
        return simulate(cfg, [](trace::TraceSink &sink) {
            trace::Emitter em(sink);
            for (int i = 0; i < 4000; ++i) {
                em.emitBranch((i % 4) != 3,
                              std::source_location::current());
                em.emit(InstrClass::IntAlu,
                        std::source_location::current());
            }
        });
    };
    auto tiny = run(1);
    auto tableII = run(12);
    EXPECT_EQ(tiny.branches, tableII.branches);
    EXPECT_GT(tiny.mispredicts, tableII.mispredicts + 200);
    EXPECT_GT(tiny.cycles, tableII.cycles);
}

TEST(Pipeline, ValidateRejectsBadConfigs)
{
    EXPECT_NO_THROW(CoreConfig{}.validate());
    EXPECT_NO_THROW(CoreConfig::eightWayOoO().validate());
    auto bad = [](auto &&poke) {
        CoreConfig cfg = CoreConfig::fourWayOoO();
        poke(cfg);
        return cfg;
    };
    EXPECT_THROW(bad([](CoreConfig &c) { c.fetchWidth = 0; })
                     .validate(),
                 std::invalid_argument);
    EXPECT_THROW(bad([](CoreConfig &c) { c.bpredLog2Entries = 0; })
                     .validate(),
                 std::invalid_argument);
    EXPECT_THROW(bad([](CoreConfig &c) { c.bpredLog2Entries = 40; })
                     .validate(),
                 std::invalid_argument);
    EXPECT_THROW(bad([](CoreConfig &c) { c.storeSetLog2 = 0; })
                     .validate(),
                 std::invalid_argument);
    EXPECT_THROW(bad([](CoreConfig &c) { c.model.clear(); })
                     .validate(),
                 std::invalid_argument);
    // Both engines' constructor paths must throw before sizing
    // anything - the predictor table included.
    for (auto poke : {+[](CoreConfig &c) { c.inflight = 0; },
                      +[](CoreConfig &c) { c.bpredLog2Entries = 40; }}) {
        EXPECT_THROW((void)timing::makeTimingModel(bad(poke)),
                     std::invalid_argument);
        EXPECT_THROW(PipelineSim(bad(poke)), std::invalid_argument);
    }
}

TEST(BranchPredictor, LearnsBias)
{
    timing::BranchPredictor bp;
    for (int i = 0; i < 100; ++i)
        bp.update(0x1000, true);
    EXPECT_TRUE(bp.predict(0x1000));
    for (int i = 0; i < 100; ++i)
        bp.update(0x1000, false);
    EXPECT_FALSE(bp.predict(0x1000));
}

TEST(BranchPredictor, LearnsShortPeriodicPattern)
{
    timing::BranchPredictor bp;
    // Period-4 pattern TTTN: gshare history disambiguates.
    auto pattern = [](int i) { return (i % 4) != 3; };
    int mispredicts = 0;
    for (int i = 0; i < 4000; ++i) {
        bool taken = pattern(i);
        if (i > 1000 && bp.predict(0x2000) != taken)
            ++mispredicts;
        bp.update(0x2000, taken);
    }
    EXPECT_LT(mispredicts, 150);
}
