/**
 * @file
 * Table III reproduction: dynamic instruction count for 1000
 * executions of each kernel (thousands of instructions), per class,
 * for the scalar / Altivec / unaligned variants, on MC-realistic
 * random alignments.
 *
 * All mixes come from mix-only sweep cells (no timing simulation):
 * every kernel/variant trace of the main table and of the reduction
 * summary is recorded once, sharded over --threads workers.
 */

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
    const int execs = opt.size("--execs", 1000, 16);
    std::printf("== Table III: dynamic instruction count for %d "
                "executions (thousands) ==\n\n",
                execs);

    // The reduction summary the paper quotes in section V-A.
    struct Family {
        h264::KernelId id;
        const char *name;
        std::vector<int> sizes;
        double paper;
    };
    const Family families[] = {
        {h264::KernelId::LumaMc, "luma", {16, 8, 4}, 33.4},
        {h264::KernelId::ChromaMc, "chroma", {8, 4}, 22.6},
        {h264::KernelId::Idct, "idct", {8, 4}, 1.8},
        {h264::KernelId::Sad, "sad", {16, 8, 4}, 33.7},
    };

    // One mix-only plan covers the main table (execs executions of
    // every Table III spec/variant) and the per-family reduction
    // summary (execs/4 executions of Altivec and Unaligned).
    const auto specs = core::tableThreeSpecs();
    core::SweepPlan plan;
    for (const auto &spec : specs) {
        for (int v = 0; v < h264::numVariants; ++v) {
            int t = plan.addTrace(core::kernelTraceJob(
                spec, static_cast<Variant>(v), execs));
            plan.addCell(t, core::SweepCell::mixOnly);
        }
    }
    std::vector<std::pair<int, int>> fam_cells;  // (altivec, unaligned)
    for (const auto &f : families) {
        for (int size : f.sizes) {
            core::KernelSpec spec{f.id, size, false};
            int a = plan.addTrace(core::kernelTraceJob(
                spec, Variant::Altivec, execs / 4));
            int u = plan.addTrace(core::kernelTraceJob(
                spec, Variant::Unaligned, execs / 4));
            fam_cells.emplace_back(int(plan.cells().size()), 0);
            plan.addCell(a, core::SweepCell::mixOnly);
            fam_cells.back().second = int(plan.cells().size());
            plan.addCell(u, core::SweepCell::mixOnly);
        }
    }

    auto runner = bench::makeSweepRunner(opt);
    auto results = runner.run(plan);

    auto artifact =
        bench::makeResult("table3_instr_count", opt);
    artifact.addParam("execs", json::Value(execs));

    core::TextTable t;
    t.header({"kernel", "variant", "Total", "Int", "Loads", "Stores",
              "Branch", "VLoad", "VStore", "VSimple", "VCmplx",
              "VPerm"});

    auto kilo = [&](std::uint64_t v) {
        return core::fmtCount((v + 500) / 1000);
    };

    for (int s = 0; s < int(specs.size()); ++s) {
        const auto &spec = specs[s];
        for (int v = 0; v < h264::numVariants; ++v) {
            auto variant = static_cast<Variant>(v);
            const auto &mix =
                results[s * h264::numVariants + v].mix;
            t.row({spec.name() + " " +
                       std::string(h264::variantName(variant)),
                   std::string(h264::variantName(variant)),
                   kilo(mix.total()), kilo(mix.intOps()),
                   kilo(mix.scalarLoads()), kilo(mix.scalarStores()),
                   kilo(mix.branches()), kilo(mix.vecLoads()),
                   kilo(mix.vecStores()), kilo(mix.vecSimple()),
                   kilo(mix.vecComplex()), kilo(mix.vecPerm())});
        }
    }
    std::printf("%s\n", t.str().c_str());

    std::printf("-- Instruction reduction, unaligned vs plain Altivec "
                "(all block sizes) --\n");
    int fam_idx = 0;
    for (const auto &f : families) {
        double sum = 0;
        std::uint64_t perm_a = 0, perm_u = 0;
        for (std::size_t i = 0; i < f.sizes.size(); ++i) {
            const auto &a = results[fam_cells[fam_idx].first].mix;
            const auto &u = results[fam_cells[fam_idx].second].mix;
            ++fam_idx;
            sum += 100.0 * (1.0 - double(u.total()) / a.total());
            perm_a += a.vecPerm();
            perm_u += u.vecPerm();
        }
        double avg = sum / double(f.sizes.size());
        const double perm_red =
            100.0 * (1.0 - double(perm_u) / double(perm_a));
        std::printf("  %-7s avg total reduction %5.1f%%  (paper: "
                    "%4.1f%%), perm reduction %5.1f%%\n",
                    f.name, avg, f.paper, perm_red);
        artifact.addMetric(std::string(f.name) +
                               "/avg_total_reduction_pct",
                           avg);
        artifact.addMetric(std::string(f.name) +
                               "/perm_reduction_pct",
                           perm_red);
    }

    bench::finishArtifact(opt, artifact, results, runner);
    return 0;
}
