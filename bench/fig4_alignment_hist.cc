/**
 * @file
 * Fig 4 reproduction: distribution of (address % 16) for the luma and
 * chroma interpolation kernels' block load and store pointers, over
 * the 12 input profiles (4 contents x 3 resolutions).
 *
 * Each sequence's address walk is a mix-only sweep job (no timing
 * cells), so the 12 collections shard over --threads workers while
 * the per-sequence result slots keep the output order fixed.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "video/motion.hh"

using namespace uasim;
using video::AlignmentHistogram;

namespace {

void
printPanel(const char *title, const char *metricKey,
           const std::vector<std::pair<std::string,
                                       AlignmentHistogram>> &rows,
           core::BenchResult &artifact)
{
    std::printf("-- %s: %% of block addresses per (addr %% 16) --\n",
                title);
    core::TextTable t;
    std::vector<std::string> head{"sequence"};
    for (int o = 0; o < 16; ++o)
        head.push_back(std::to_string(o));
    t.header(head);
    for (const auto &[name, hist] : rows) {
        std::vector<std::string> cells{name};
        for (int o = 0; o < 16; ++o) {
            cells.push_back(core::fmt(hist.percent(o), 1));
            artifact.addMetric(std::string(metricKey) + "/" + name +
                                   "/" + std::to_string(o),
                               hist.percent(o));
        }
        t.row(cells);
    }
    std::printf("%s\n", t.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::parseBenchArgs(
        argc, argv, {{"--frames", core::CliFlag::Int, "N", 1}});
    const int frames = opt.size("--frames", 8, 1);
    std::printf("== Fig 4: alignment offsets in H.264/AVC luma and "
                "chroma interpolation ==\n(%d frames of MC block "
                "addresses per sequence)\n\n",
                frames);

    const auto seqs = video::allSequenceParams();
    std::vector<video::McAlignmentStats> stats(seqs.size());

    core::SweepPlan plan;
    for (int i = 0; i < int(seqs.size()); ++i) {
        const auto &params = seqs[i];
        // Not cacheable: the job's output is the side effect of
        // filling stats[i], not its (empty) record stream, so a
        // store hit would skip the work entirely.
        int t = plan.addTrace(
            {params.label(), [&stats, &params, frames, i](
                                 trace::TraceSink &) {
                 stats[i] = video::collectMcAlignment(params, frames);
             },
             /*cacheable=*/false});
        plan.addCell(t, core::SweepCell::mixOnly);
    }
    auto runner = bench::makeSweepRunner(opt);
    auto results = runner.run(plan);

    auto artifact =
        bench::makeResult("fig4_alignment_hist", opt);
    artifact.addParam("frames", json::Value(frames));

    std::vector<std::pair<std::string, AlignmentHistogram>> luma_ld,
        chroma_ld, luma_st, chroma_st;
    for (int i = 0; i < int(seqs.size()); ++i) {
        const std::string label = seqs[i].label();
        luma_ld.emplace_back(label, stats[i].lumaLoad);
        chroma_ld.emplace_back(label, stats[i].chromaLoad);
        luma_st.emplace_back(label, stats[i].lumaStore);
        chroma_st.emplace_back(label, stats[i].chromaStore);
    }

    printPanel("Fig 4(a) luma load pointers", "luma_load", luma_ld,
               artifact);
    printPanel("Fig 4(b) chroma load pointers", "chroma_load",
               chroma_ld, artifact);
    printPanel("Fig 4(c) luma store pointers", "luma_store", luma_st,
               artifact);
    printPanel("Fig 4(d) chroma store pointers", "chroma_store",
               chroma_st, artifact);

    bench::finishArtifact(opt, artifact, results, runner);

    std::printf(
        "Paper reference: load offsets spread over the full 0..15 "
        "range and cannot\nbe predicted at compile time; store offsets "
        "depend only on the block size\n(luma stores only at multiples "
        "of 4, dominated by 0; chroma stores only at\neven offsets).\n");
    return 0;
}
