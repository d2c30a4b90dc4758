/**
 * @file
 * Table I reproduction: unaligned-access support across SIMD ISAs, as
 * executable code. For each strategy we run the idiom over every
 * alignment offset, verify the result, and report the measured
 * instruction cost per unaligned load/store plus the simulated
 * latency of a dependent-load chain on the 4-way core.
 *
 * The dependent-chain simulations run as sweep cells: one recorded
 * chain trace per strategy, simulated on the 4-way+network core,
 * sharded over --threads workers.
 */

#include <cstdio>
#include <utility>

#include "bench_util.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "trace/addrmap.hh"
#include "trace/emitter.hh"
#include "vmx/buffer.hh"
#include "vmx/scalarops.hh"
#include "vmx/strategies.hh"

using namespace uasim;
using vmx::RealignStrategy;

namespace {

/// Chain length of the dependent-load latency measurement.
constexpr int chainLen = 400;

/// TraceJob recording a @c chainLen dependent-load chain under @p strat.
core::TraceJob
chainTraceJob(RealignStrategy strat)
{
    // chainLen is part of the key: store entries outlive the process,
    // so the key must pin everything the recorded stream depends on.
    return {std::string("chain/") + std::string(vmx::strategyName(strat)) +
                "/" + std::to_string(chainLen),
            [strat](trace::TraceSink &sink) {
                trace::AddrNormalizer norm;
                vmx::AlignedBuffer buf(4096, 5);
                // Include the guard bands: forced-aligned lvx and the
                // 32B-wide lddqu legitimately reach up to 16B outside
                // the payload.
                norm.addRegion(buf.data() - 16, buf.size() + 32,
                               0x10000000);
                trace::Emitter em(sink, std::move(norm));
                vmx::VecOps vo(em);
                vmx::ScalarOps so(em);

                vmx::CPtr p = so.lip(buf.data());
                trace::Dep chain{};
                for (int i = 0; i < chainLen; ++i) {
                    vmx::CPtr q{p.p + 16 * (i % 64), chain};
                    vmx::Vec v = vmx::strategyLoadU(vo, strat, q, 1);
                    chain = v.dep;  // serialize: next load depends on
                                    // this result
                }
            }};
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::parseBenchArgs(argc, argv);
    std::printf("== Table I: support for unaligned loads in different "
                "platforms ==\n");
    std::printf("(instruction counts measured from the emitted idioms; "
                "latency is a\n simulated dependent-load chain on the "
                "4-way core, +1/+2 network)\n\n");

    const int numStrats = int(RealignStrategy::NumStrategies);

    core::SweepPlan plan;
    {
        timing::CoreConfig cfg = timing::CoreConfig::fourWayOoO();
        // The paper's proposed network: +1 cycle loads, +2 cycle
        // stores.
        cfg.lat.unalignedLoadExtra = 1;
        cfg.lat.unalignedStoreExtra = 2;
        int c = plan.addConfig("4w+net", cfg);
        for (int i = 0; i < numStrats; ++i) {
            int t = plan.addTrace(
                chainTraceJob(static_cast<RealignStrategy>(i)));
            plan.addCell(t, c);
        }
    }
    auto runner = bench::makeSweepRunner(opt);
    auto results = runner.run(plan);

    auto artifact = bench::makeResult("table1_isa_support", opt);
    artifact.addParam("chainLen", json::Value(chainLen));

    core::TextTable t;
    t.header({"ISA / extension", "idiom", "ld instrs", "st instrs",
              "chain cyc/load"});
    for (int i = 0; i < numStrats; ++i) {
        auto s = static_cast<RealignStrategy>(i);

        // Verify the idiom over all offsets before reporting it.
        trace::NullSink null;
        trace::Emitter em(null);
        vmx::VecOps vo(em);
        bool ok = true;
        for (int off = 0; off < 16 && ok; ++off) {
            vmx::AlignedBuffer buf(64, off);
            for (int k = 0; k < 64; ++k)
                buf[k] = std::uint8_t(13 * k + 7);
            vmx::Vec v = vmx::strategyLoadU(vo, s,
                                            vmx::CPtr{buf.data()});
            for (int k = 0; k < 16; ++k)
                ok &= v.u8(k) == buf[k];
        }

        double chain_cyc = double(results[i].sim.cycles) / chainLen;
        t.row({std::string(vmx::strategyIsa(s)),
               std::string(vmx::strategyName(s)) +
                   (ok ? "" : "  (BROKEN)"),
               std::to_string(vmx::strategyLoadInstrs(s)),
               std::to_string(vmx::strategyStoreInstrs(s)),
               core::fmt(chain_cyc, 1)});
        const std::string m{vmx::strategyName(s)};
        artifact.addMetric(m + "/ld_instrs",
                           vmx::strategyLoadInstrs(s));
        artifact.addMetric(m + "/st_instrs",
                           vmx::strategyStoreInstrs(s));
        artifact.addMetric(m + "/chain_cyc_per_load", chain_cyc);
        artifact.addMetric(m + "/verified", ok ? 1.0 : 0.0);
    }
    std::printf("%s\n", t.str().c_str());

    bench::finishArtifact(opt, artifact, results, runner);
    std::printf("Paper reference: Altivec needs lvsl+2xlvx+vperm (4), "
                "Cell lvlx/lvrx (3),\nSSE2 movdqu is microcoded, and "
                "only the proposed lvxu/stvxu reach 1 instruction\nfor "
                "both directions.\n");
    return 0;
}
