/**
 * @file
 * Quickstart: run one H.264 kernel in all three variants, count
 * instructions, and simulate it on the paper's 4-way core.
 *
 * Build tree path: build/examples/quickstart
 */

#include <cstdio>

#include "core/api.hh"
#include "core/cli.hh"

using namespace uasim;

int
main(int argc, char **argv)
{
    const auto args = core::parseCommandLine(
        argc, argv, {{"--quick"}, {"--execs", core::CliFlag::Int, "N", 1}});
    const int count_execs =
        args.number("--execs", args.has("--quick") ? 10 : 100);
    const int sim_execs = 2 * count_execs;
    // 1. Pick a kernel configuration: SAD over 16x16 blocks, the
    //    motion-estimation metric with unpredictable alignments.
    core::KernelSpec spec{h264::KernelId::Sad, 16, false};
    core::KernelBench bench(spec);

    // 2. Sanity: every variant must be bit-exact vs the reference.
    if (!bench.verifyVariants()) {
        std::printf("variant mismatch!\n");
        return 1;
    }

    // 3. Dynamic instruction counts (the paper's Table III view).
    std::printf("%s, %d executions:\n", spec.name().c_str(),
                count_execs);
    for (int v = 0; v < h264::numVariants; ++v) {
        auto variant = static_cast<h264::Variant>(v);
        auto mix = bench.countInstrs(variant, count_execs);
        std::printf("  %-10s total=%7lu  vec_loads=%5lu  perms=%5lu\n",
                    std::string(h264::variantName(variant)).c_str(),
                    (unsigned long)mix.total(),
                    (unsigned long)mix.vecLoads(),
                    (unsigned long)mix.vecPerm());
    }

    // 4. Cycle-level simulation on the 4-way out-of-order core.
    auto cfg = timing::CoreConfig::fourWayOoO();
    std::printf("\nsimulated on %s:\n", cfg.name.c_str());
    double cycles[3];
    for (int v = 0; v < h264::numVariants; ++v) {
        auto variant = static_cast<h264::Variant>(v);
        auto res = bench.simulate(variant, cfg, sim_execs);
        cycles[v] = double(res.cycles);
        std::printf("  %-10s %9.0f cycles  (ipc %.2f, mispredict "
                    "%.1f%%)\n",
                    std::string(h264::variantName(variant)).c_str(),
                    cycles[v], res.ipc(),
                    100.0 * res.mispredictRate());
    }
    std::printf("\nunaligned vs altivec speedup: %.2fx  "
                "(paper: ~1.16x for SAD)\n",
                cycles[1] / cycles[2]);
    return 0;
}
