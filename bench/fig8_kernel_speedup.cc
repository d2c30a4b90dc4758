/**
 * @file
 * Fig 8 reproduction: kernel speedups with unaligned load/store
 * support. Every kernel/block-size is simulated in the three variants
 * on the three Table II cores; bars are normalized to the 2-way
 * scalar version, exactly like the paper's figure. Unaligned accesses
 * run at aligned latency (the paper's upper-bound experiment; Fig 9
 * covers the latency sweep).
 *
 * Execution goes through the sweep engine: each kernel/variant trace
 * is recorded once and replayed into all three cores, sharded over
 * --threads workers, with cell-ordered (thread-count independent)
 * results. The one state-sensitive trace (scalar IDCT; see
 * KernelSpec::traceStateInvariant) is recorded per core with the
 * grid-order call history warmed up, keeping the table byte-identical
 * to the original shared-bench per-cell loop.
 */

#include <array>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/sweep.hh"

using namespace uasim;
using h264::Variant;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseBenchArgs(
        argc, argv, {{"--execs", core::CliFlag::Int, "N", 1}});
    const int execs = opt.size("--execs", 300, 8);
    std::printf("== Fig 8: speed-up in kernels with support for "
                "unaligned load and stores ==\n(%d executions per "
                "point; normalized to the 2-way scalar version)\n\n",
                execs);

    const char *group_break[] = {"chroma4x4", "idct4x4_matrix"};

    const auto grid = core::paperKernelGrid();

    core::SweepPlan plan;
    for (int c = 0; c < 3; ++c) {
        auto cfg = timing::CoreConfig::preset(c);
        plan.addConfig(cfg.name, cfg);
    }
    // cellIdx[s][v][c]: result slot of kernel s, variant v, core c.
    // State-invariant traces are recorded once and replayed into all
    // three cores; the scalar IDCT gets one exact-history trace per
    // core (its grid position is call 3*c + v of the original
    // shared-bench loop).
    std::vector<std::array<std::array<int, 3>, h264::numVariants>>
        cellIdx(grid.size());
    for (int s = 0; s < int(grid.size()); ++s) {
        const auto &spec = grid[s];
        for (int v = 0; v < h264::numVariants; ++v) {
            auto variant = static_cast<Variant>(v);
            if (spec.traceStateInvariant(variant)) {
                int t = plan.addTrace(
                    core::kernelTraceJob(spec, variant, execs));
                for (int c = 0; c < 3; ++c) {
                    cellIdx[s][v][c] = int(plan.cells().size());
                    plan.addCell(t, c);
                }
            } else {
                for (int c = 0; c < 3; ++c) {
                    int t = plan.addTrace(core::kernelTraceJob(
                        spec, variant, execs, 12345, 3 * c + v));
                    cellIdx[s][v][c] = int(plan.cells().size());
                    plan.addCell(t, c);
                }
            }
        }
    }

    auto runner = bench::makeSweepRunner(opt);
    auto results = runner.run(plan);

    auto artifact = bench::makeResult("fig8_kernel_speedup", opt);
    artifact.addParam("execs", json::Value(execs));

    core::TextTable t;
    t.header({"kernel", "core", "scalar", "altivec", "unaligned",
              "unal/altivec"});

    for (int s = 0; s < int(grid.size()); ++s) {
        const auto &spec = grid[s];
        double base = 0;
        for (int c = 0; c < 3; ++c) {
            auto cfg = timing::CoreConfig::preset(c);
            double cyc[h264::numVariants];
            for (int v = 0; v < h264::numVariants; ++v)
                cyc[v] = double(results[cellIdx[s][v][c]].sim.cycles);
            if (c == 0)
                base = cyc[0];
            t.row({spec.name(), cfg.name, core::fmt(base / cyc[0]),
                   core::fmt(base / cyc[1]), core::fmt(base / cyc[2]),
                   core::fmt(cyc[1] / cyc[2])});
            const std::string m = spec.name() + "/" + cfg.name;
            artifact.addMetric(m + "/scalar", base / cyc[0]);
            artifact.addMetric(m + "/altivec", base / cyc[1]);
            artifact.addMetric(m + "/unaligned", base / cyc[2]);
            artifact.addMetric(m + "/unal_over_altivec",
                               cyc[1] / cyc[2]);
        }
        for (const char *b : group_break) {
            if (spec.name() == b)
                t.row({"", "", "", "", "", ""});
        }
    }
    std::printf("%s\n", t.str().c_str());

    bench::finishArtifact(opt, artifact, results, runner);

    std::printf(
        "Paper reference (section V-B): luma unaligned gains 1.9X/2.6X"
        "/2.1X over\nplain Altivec for 16x16/8x8/4x4; scalar beats "
        "plain Altivec for luma 4x4;\nchroma ~1.1-1.25X; IDCT only "
        "1.06-1.09X (inputs already aligned); SAD ~1.16X\naverage with "
        "the largest gains on the 2-way.\n");
    return 0;
}
