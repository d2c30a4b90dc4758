/**
 * @file
 * Fig 9 reproduction: impact of the realignment-network latency. The
 * unaligned variant is simulated on the 4-way core with 0/+1/+2/+4/+6
 * extra cycles on dynamically unaligned lvxu/stvxu, and reported as
 * speedup over the plain Altivec version (whose cycles are latency-
 * independent).
 *
 * This is the sweep engine's best case: per kernel, the unaligned
 * trace is recorded once and replayed into all five latency
 * configurations (the trace is configuration-independent), instead of
 * re-emulating it five times.
 *
 * --membw-sweep switches the swept axis from realignment latency to
 * the memory-bus throttle: both variants replay at
 * memBWBytesPerCycle in {0 (unthrottled), 8, 16, 32}, and each point
 * reports the unaligned-over-Altivec speedup at that bandwidth. The
 * unaligned variant issues more (and wider-miss) memory traffic, so
 * a tighter bus squeezes its advantage - the axis PR 8's throttle
 * knob exists for. A separate experiment, so a separate artifact:
 * BENCH_fig9_membw_sweep[.<model>].json.
 */

#include <cstdio>
#include <iterator>

#include "bench_util.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/sweep.hh"

using namespace uasim;
using h264::Variant;

namespace {

/// The --membw-sweep axis: unaligned-over-Altivec speedup per
/// memory-bandwidth point instead of per extra-latency point.
int
runMembwSweep(const bench::BenchOptions &opt, int execs)
{
    const int bws[] = {0, 8, 16, 32};
    const int numBws = int(std::size(bws));

    std::printf("== Fig 9 (memBW axis): speedup of the unaligned "
                "version over plain\nAltivec under a "
                "bytes-per-cycle memory-bus throttle ==\n(4-way "
                "core, %d executions; bw0 is the unthrottled "
                "bus)\n\n",
                execs);

    const auto grid = core::paperKernelGrid();

    core::SweepPlan plan;
    for (int bw : bws) {
        auto cfg = timing::CoreConfig::fourWayOoO();
        cfg.mem.memBWBytesPerCycle = bw;
        plan.addConfig("bw" + std::to_string(bw), cfg);
    }
    // Unlike the latency axis, the throttle hits aligned and
    // unaligned traffic alike, so BOTH variants replay at every
    // bandwidth point and the ratio is taken per point.
    for (const auto &spec : grid) {
        int alt = plan.addTrace(
            core::kernelTraceJob(spec, Variant::Altivec, execs));
        int unal = plan.addTrace(
            core::kernelTraceJob(spec, Variant::Unaligned, execs));
        for (int b = 0; b < numBws; ++b) {
            plan.addCell(alt, b);
            plan.addCell(unal, b);
        }
    }

    auto runner = bench::makeSweepRunner(opt);
    auto results = runner.run(plan);

    auto artifact = bench::makeResult("fig9_membw_sweep", opt);
    artifact.addParam("execs", json::Value(execs));

    core::TextTable t;
    t.header({"kernel", "bw0", "bw8", "bw16", "bw32"});

    for (int s = 0; s < int(grid.size()); ++s) {
        const int rowBase = s * (2 * numBws);
        std::vector<std::string> cells{grid[s].name()};
        for (int b = 0; b < numBws; ++b) {
            const auto &altivec = results[rowBase + 2 * b].sim;
            const auto &unal = results[rowBase + 2 * b + 1].sim;
            const double speedup =
                double(altivec.cycles) / double(unal.cycles);
            cells.push_back(core::fmt(speedup));
            artifact.addMetric(grid[s].name() + "/bw" +
                                   std::to_string(bws[b]),
                               speedup);
        }
        t.row(cells);
    }
    std::printf("%s\n", t.str().c_str());

    bench::finishArtifact(opt, artifact, results, runner);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::parseBenchArgs(
        argc, argv,
        {{"--execs", core::CliFlag::Int, "N", 1}, {"--membw-sweep"}});
    const int execs = opt.size("--execs", 300, 8);
    if (opt.args.has("--membw-sweep"))
        return runMembwSweep(opt, execs);
    const int extras[] = {0, 1, 2, 4, 6};
    const int numExtras = int(std::size(extras));

    std::printf("== Fig 9: performance impact of the latency of "
                "unaligned load and stores ==\n(4-way core, %d "
                "executions; values are speedup of the unaligned\n"
                "version over plain Altivec at each extra latency)\n\n",
                execs);

    const auto grid = core::paperKernelGrid();

    core::SweepPlan plan;
    for (int extra : extras) {
        auto cfg = timing::CoreConfig::fourWayOoO();
        cfg.lat.unalignedLoadExtra = extra;
        cfg.lat.unalignedStoreExtra = extra;
        std::string label = "+";
        label += std::to_string(extra);
        label += "cyc";
        plan.addConfig(std::move(label), cfg);
    }
    // Per kernel: the Altivec baseline on the equal-latency core
    // (extra latency only affects lvxu/stvxu, which it never emits),
    // then the unaligned trace replayed into every latency point.
    for (const auto &spec : grid) {
        int alt = plan.addTrace(
            core::kernelTraceJob(spec, Variant::Altivec, execs));
        int unal = plan.addTrace(
            core::kernelTraceJob(spec, Variant::Unaligned, execs));
        plan.addCell(alt, 0);
        for (int e = 0; e < numExtras; ++e)
            plan.addCell(unal, e);
    }

    auto runner = bench::makeSweepRunner(opt);
    auto results = runner.run(plan);

    auto artifact =
        bench::makeResult("fig9_latency_sensitivity", opt);
    artifact.addParam("execs", json::Value(execs));

    core::TextTable t;
    t.header({"kernel", "equal_lat", "+1cyc", "+2cyc", "+4cyc",
              "+6cyc"});

    for (int s = 0; s < int(grid.size()); ++s) {
        const int rowBase = s * (1 + numExtras);
        const auto &altivec = results[rowBase].sim;
        std::vector<std::string> cells{grid[s].name()};
        for (int e = 0; e < numExtras; ++e) {
            const auto &unal = results[rowBase + 1 + e].sim;
            const double speedup =
                double(altivec.cycles) / double(unal.cycles);
            cells.push_back(core::fmt(speedup));
            artifact.addMetric(grid[s].name() + "/+" +
                                   std::to_string(extras[e]) + "cyc",
                               speedup);
        }
        t.row(cells);
    }
    std::printf("%s\n", t.str().c_str());

    bench::finishArtifact(opt, artifact, results, runner);

    std::printf(
        "Paper reference (section V-C): most kernels keep a clear "
        "speedup through\n+1/+2 cycles (the proposed network costs "
        "+1 load / +2 store); chroma 8x8\nand SAD 16x16 approach or "
        "cross 1.0 at the largest extra latencies; the\nIDCT barely "
        "moves; the matrix IDCT tolerates latency best.\n");
    return 0;
}
