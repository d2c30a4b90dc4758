/**
 * @file
 * Architecture-exploration scenario: sweep the realignment-network
 * latency and the cache-port count on the 4-way core and watch where
 * the unaligned instructions stop paying off - the design-space
 * question the paper's section V-C answers for hardware designers.
 */

#include <cstdio>

#include "core/cli.hh"
#include "core/experiment.hh"

using namespace uasim;

int
main(int argc, char **argv)
{
    const auto args = core::parseCommandLine(
        argc, argv, {{"--quick"}, {"--execs", core::CliFlag::Int, "N", 1}});
    const int execs = args.number("--execs", args.has("--quick") ? 20 : 200);
    core::KernelSpec spec{h264::KernelId::ChromaMc, 8, false};
    core::KernelBench bench(spec);

    std::printf("design-space sweep on %s (4-way core, %d "
                "executions)\n\n",
                spec.name().c_str(), execs);

    auto base_cfg = timing::CoreConfig::fourWayOoO();
    auto altivec = bench.simulate(h264::Variant::Altivec, base_cfg,
                                  execs);
    std::printf("plain Altivec baseline: %llu cycles\n\n",
                (unsigned long long)altivec.cycles);

    std::printf("1) extra latency of unaligned accesses "
                "(paper Fig 9):\n");
    for (int extra : {0, 1, 2, 4, 6, 8, 10}) {
        auto cfg = base_cfg;
        cfg.lat.unalignedLoadExtra = extra;
        cfg.lat.unalignedStoreExtra = extra;
        auto r = bench.simulate(h264::Variant::Unaligned, cfg, execs);
        double speedup = double(altivec.cycles) / double(r.cycles);
        std::printf("   +%2d cycles: speedup %.3f %s\n", extra, speedup,
                    speedup < 1.0 ? " <- slower than software realign!"
                                  : "");
    }

    std::printf("\n2) D-cache read ports (paper section III: short "
                "bandwidth to the L1\n   hurts both variants, but the "
                "realigned version issues twice the loads):\n");
    for (int ports : {1, 2, 4}) {
        auto cfg = base_cfg;
        cfg.dReadPorts = ports;
        auto a = bench.simulate(h264::Variant::Altivec, cfg, execs);
        auto u = bench.simulate(h264::Variant::Unaligned, cfg, execs);
        std::printf("   %d port(s): altivec %8llu cyc, unaligned %8llu "
                    "cyc, gain %.3fx\n",
                    ports, (unsigned long long)a.cycles,
                    (unsigned long long)u.cycles,
                    double(a.cycles) / double(u.cycles));
    }

    std::printf("\n3) dual-bank alignment network on/off (paper Fig 7; "
                "line-crossing\n   accesses serialize without it):\n");
    for (bool parallel : {true, false}) {
        auto cfg = base_cfg;
        cfg.mem.parallelBanks = parallel;
        cfg.lat.unalignedLoadExtra = 1;
        cfg.lat.unalignedStoreExtra = 2;
        auto r = bench.simulate(h264::Variant::Unaligned, cfg, execs);
        std::printf("   %s banks: %8llu cycles (%llu line "
                    "crossings)\n",
                    parallel ? "parallel" : "  serial",
                    (unsigned long long)r.cycles,
                    (unsigned long long)r.lineCrossings);
    }
    return 0;
}
