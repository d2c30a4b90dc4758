/**
 * @file
 * Ablation beyond the paper: plug each Table I realignment strategy
 * into the same end-to-end SAD 16x16 kernel and simulate it on all
 * three cores. This turns the paper's survey table into a kernel-level
 * what-if: how much of the lvxu win does a 3-instruction Cell-style
 * sequence already capture? How much does microcoded movdqu give up?
 *
 * Each strategy's kernel trace is recorded once and replayed into all
 * three cores by the sweep engine; the instruction-count pass is a
 * mix-only cell on a separate short trace.
 */

#include <cstdio>
#include <utility>

#include "bench_util.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "trace/addrmap.hh"
#include "trace/emitter.hh"
#include "video/frame.hh"
#include "video/rng.hh"
#include "vmx/scalarops.hh"
#include "vmx/strategies.hh"

using namespace uasim;
using vmx::CPtr;
using vmx::RealignStrategy;
using vmx::SInt;
using vmx::Vec;

namespace {

/// SAD 16x16 with the unaligned loads done by @p strat.
int
sadWithStrategy(vmx::ScalarOps &so, vmx::VecOps &vo,
                RealignStrategy strat, const std::uint8_t *cur,
                int cur_stride, const std::uint8_t *ref, int ref_stride)
{
    CPtr c = so.lip(cur);
    CPtr r = so.lip(ref);
    Vec vzero = vo.zero();
    Vec acc = vzero;
    for (int y = 0; y < 16; ++y) {
        Vec a = vmx::strategyLoadU(vo, strat, c);
        Vec b = vmx::strategyLoadU(vo, strat, r);
        Vec mx = vo.maxu8(a, b);
        Vec mn = vo.minu8(a, b);
        acc = vo.sum4su8(vo.subu8(mx, mn), acc);
        c = so.paddi(c, cur_stride);
        r = so.paddi(r, ref_stride);
        so.loopBranch(y + 1 < 16);
    }
    Vec total = vo.sums32(acc, vzero);
    alignas(16) static thread_local std::uint8_t spill[16];
    vmx::Ptr sp = so.lip(spill);
    vo.stvx(total, sp, 0);
    return int(so.loadS32(CPtr{sp}, 12).v);
}

/// Run @p execs MC-random SAD executions under @p strat.
void
runSadExecs(vmx::ScalarOps &so, vmx::VecOps &vo, RealignStrategy strat,
            const video::Plane &cur, const video::Plane &ref, int execs)
{
    video::Rng rng(11);
    for (int i = 0; i < execs; ++i) {
        int bx = int(rng.range(24, 200));
        int by = int(rng.range(24, 200));
        int dx = int(rng.range(-20, 20));
        int dy = int(rng.range(-20, 20));
        sadWithStrategy(so, vo, strat, cur.pixel(bx, by), cur.stride(),
                        ref.pixel(bx + dx, by + dy), ref.stride());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::parseBenchArgs(
        argc, argv, {{"--execs", core::CliFlag::Int, "N", 1}});
    const int execs = opt.size("--execs", 300, 8);
    std::printf("== Ablation: Table I strategies inside the SAD 16x16 "
                "kernel ==\n(%d executions per point; cycles per "
                "execution, +1/+2 network for\nhardware-unaligned "
                "strategies)\n\n",
                execs);

    video::Plane cur(256, 256), ref(256, 256);
    video::Rng init(7);
    for (int y = 0; y < 256; ++y) {
        for (int x = 0; x < 256; ++x) {
            cur.at(x, y) = std::uint8_t(init.below(256));
            ref.at(x, y) = std::uint8_t(init.below(256));
        }
    }

    const int countExecs = 32;
    const int numStrats = int(RealignStrategy::NumStrategies);

    core::SweepPlan plan;
    for (int c = 0; c < 3; ++c) {
        auto cfg = timing::CoreConfig::preset(c);
        cfg.lat.unalignedLoadExtra = 1;
        cfg.lat.unalignedStoreExtra = 2;
        plan.addConfig(cfg.name, cfg);
    }
    // Per strategy: one short un-normalized trace for the instruction
    // count (mix-only), and one normalized trace replayed into all
    // three cores. Cell layout: strategy s occupies cells [s*4, s*4+4).
    for (int si = 0; si < numStrats; ++si) {
        auto strat = static_cast<RealignStrategy>(si);
        std::string name{vmx::strategyName(strat)};
        // Execution counts are part of the keys: store entries
        // outlive the process, so a --execs change must miss. The
        // count trace is deliberately un-normalized (only its mix is
        // consumed), so its raw host addresses must not be persisted:
        // not cacheable.
        int mixT = plan.addTrace(
            {"sad16/" + name + "/count/" + std::to_string(countExecs),
             [strat, &cur, &ref](trace::TraceSink &sink) {
                 trace::Emitter em(sink);
                 vmx::ScalarOps so(em);
                 vmx::VecOps vo(em);
                 runSadExecs(so, vo, strat, cur, ref, countExecs);
             },
             /*cacheable=*/false});
        plan.addCell(mixT, core::SweepCell::mixOnly);
        int simT = plan.addTrace(
            {"sad16/" + name + "/sim/" + std::to_string(execs),
             [strat, &cur, &ref, execs](trace::TraceSink &sink) {
                 trace::AddrNormalizer norm;
                 norm.addRegion(cur.paddedBase(), cur.paddedSize(),
                                0x10000000);
                 norm.addRegion(ref.paddedBase(), ref.paddedSize(),
                                0x12000000);
                 trace::Emitter em(sink, std::move(norm));
                 vmx::ScalarOps so(em);
                 vmx::VecOps vo(em);
                 runSadExecs(so, vo, strat, cur, ref, execs);
             }});
        for (int c = 0; c < 3; ++c)
            plan.addCell(simT, c);
    }

    auto runner = bench::makeSweepRunner(opt);
    auto results = runner.run(plan);

    auto artifact =
        bench::makeResult("ablation_strategies", opt);
    artifact.addParam("execs", json::Value(execs));
    artifact.addParam("countExecs", json::Value(countExecs));

    core::TextTable t;
    std::vector<std::string> head{"strategy", "instrs/exec"};
    for (int c = 0; c < 3; ++c)
        head.push_back(std::string("cyc/exec ") +
                       timing::CoreConfig::presetNames[c]);
    t.header(head);

    for (int si = 0; si < numStrats; ++si) {
        auto strat = static_cast<RealignStrategy>(si);
        const std::string name{vmx::strategyName(strat)};
        std::vector<std::string> cells{name};
        const int rowBase = si * 4;
        cells.push_back(std::to_string(
            results[rowBase].mix.total() / countExecs));
        artifact.addMetric(
            name + "/instrs_per_exec",
            double(results[rowBase].mix.total() / countExecs));
        for (int c = 0; c < 3; ++c) {
            const auto &res = results[rowBase + 1 + c].sim;
            cells.push_back(
                core::fmt(double(res.cycles) / execs, 0));
            artifact.addMetric(
                name + "/cyc_per_exec/" +
                    timing::CoreConfig::presetNames[c],
                double(res.cycles) / execs);
        }
        t.row(cells);
    }
    std::printf("%s\n", t.str().c_str());

    bench::finishArtifact(opt, artifact, results, runner);
    std::printf(
        "Reading: the 3-instruction Cell sequence recovers part of "
        "the lvxu win;\nthe 4-instruction Altivec idiom pays both "
        "extra loads and the permute-unit\nserialization; the "
        "microcoded movdqu stays load-port bound.\n\nCaveat: the "
        "'ldndw pair' row is optimistic - the model tracks a single\n"
        "producer per vector value, so only one of the two halves "
        "sits on the\nconsumer's critical path, and the TM3270-style "
        "port restriction for\nunaligned halves is not charged.\n");
    return 0;
}
