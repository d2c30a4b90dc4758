/**
 * @file
 * Motion-estimation scenario: a diamond search over a synthetic
 * frame pair using the traced SAD kernels, comparing the instruction
 * bill of plain Altivec vs unaligned SIMD for a realistic search.
 *
 * This is the paper's section II-B motivation in executable form:
 * every candidate position the search probes has an arbitrary
 * (address % 16), so realignment code runs on almost every SAD call.
 */

#include <cstdio>

#include "bench_util.hh"

#include "core/cli.hh"
#include "h264/sad_kernels.hh"
#include "trace/emitter.hh"
#include "trace/sink.hh"
#include "video/motion.hh"
#include "video/sequence.hh"

using namespace uasim;

namespace {

/// Small diamond pattern search around (px, py); returns best MV.
std::pair<int, int>
diamondSearch(h264::KernelCtx &ctx, h264::Variant variant,
              const video::Plane &cur, const video::Plane &ref, int bx,
              int by, video::AlignmentHistogram &hist)
{
    const int offs[5][2] = {{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    int mx = 0, my = 0;
    int best = 1 << 30;
    for (int round = 0; round < 12; ++round) {
        int step_best = best;
        int sx = mx, sy = my;
        for (const auto &o : offs) {
            int cx = mx + o[0], cy = my + o[1];
            if (std::abs(cx) > 16 || std::abs(cy) > 16)
                continue;
            const std::uint8_t *rp = ref.pixel(bx + cx, by + cy);
            hist.add(reinterpret_cast<std::uint64_t>(rp));
            int sad = h264::sadKernel(ctx, variant, cur.pixel(bx, by),
                                      cur.stride(), rp, ref.stride(),
                                      16);
            if (sad < step_best) {
                step_best = sad;
                sx = cx;
                sy = cy;
            }
        }
        if (step_best >= best)
            break;
        best = step_best;
        mx = sx;
        my = sy;
    }
    return {mx, my};
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick =
        core::parseCommandLine(argc, argv, {{"--quick"}}).has("--quick");
    const video::Resolution res = bench::quickResolution(quick);
    const int w = res.width;
    const int h = res.height;

    // Blue-sky-like content: a global pan the search must track.
    auto params = video::makeParams(video::Content::BlueSky, res);
    video::SyntheticSequence seq(params);
    video::Frame f0(w, h), f1(w, h);
    seq.render(0, f0);
    seq.render(4, f1);

    std::printf("diamond search, %dx%d, 16x16 blocks:\n\n",
                params.width, params.height);

    for (int v = 1; v < h264::numVariants; ++v) {
        auto variant = static_cast<h264::Variant>(v);
        trace::CountingSink sink;
        trace::Emitter em(sink);
        h264::KernelCtx ctx(em);
        video::AlignmentHistogram hist;

        long total_mv = 0;
        int blocks = 0;
        for (int by = 16; by + 16 <= h - 16; by += 16) {
            for (int bx = 16; bx + 16 <= w - 16; bx += 16) {
                auto [mx, my] = diamondSearch(ctx, variant, f1.luma(),
                                              f0.luma(), bx, by, hist);
                total_mv += std::abs(mx) + std::abs(my);
                ++blocks;
            }
        }

        std::printf("  %-10s: %8lu instructions for %d blocks "
                    "(%lu/block), mean |mv| %.2f\n",
                    std::string(h264::variantName(variant)).c_str(),
                    (unsigned long)sink.mix().total(), blocks,
                    (unsigned long)(sink.mix().total() / blocks),
                    double(total_mv) / blocks);
        if (v == 2) {
            std::printf("\n  probed-candidate alignment offsets "
                        "(%% of SAD calls):\n    ");
            for (int o = 0; o < 16; ++o)
                std::printf("%d:%.0f%% ", o, hist.percent(o));
            std::printf("\n");
        }
    }
    std::printf("\nEvery probe lands at an arbitrary offset, so the "
                "unaligned instructions\nremove the realignment bill "
                "from nearly every SAD in the search.\n");
    return 0;
}
