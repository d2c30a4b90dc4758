/**
 * @file
 * Full-pipeline scenario: encode a synthetic sequence with the mini
 * H.264-style encoder, decode it back, verify bit-exact reconstruction
 * sync, and report quality plus the per-stage work profile that
 * drives the paper's Fig 10.
 */

#include <cstdio>

#include "bench_util.hh"

#include "core/cli.hh"
#include "decoder/codec.hh"

using namespace uasim;

int
main(int argc, char **argv)
{
    const auto args = core::parseCommandLine(
        argc, argv, {{"--quick"}, {"--frames", core::CliFlag::Int, "N", 1}});
    const bool quick = args.has("--quick");

    dec::CodecConfig cfg;
    cfg.seq = video::makeParams(video::Content::BlueSky,
                                bench::quickResolution(quick));
    cfg.qp = 30;
    cfg.frames = args.number("--frames", quick ? 2 : 6);

    dec::MiniEncoder enc(cfg);
    dec::MiniDecoder decd(cfg);
    dec::StageCounts counts;

    std::printf("encoding + decoding %d frames of %s at qp %d:\n\n",
                cfg.frames, cfg.seq.label().c_str(), cfg.qp);

    for (int f = 0; f < cfg.frames; ++f) {
        auto coded = enc.encodeFrame(f);
        decd.decodeFrame(coded, counts);
        double psnr = dec::lumaPsnr(enc.source(), decd.picture());
        double sync = dec::lumaPsnr(enc.recon(), decd.picture());
        std::printf("  frame %d: %6zu bytes, %7llu bins, psnr %.2f dB, "
                    "decoder %s\n",
                    f, coded.bits.size(),
                    (unsigned long long)coded.bins, psnr,
                    sync > 90 ? "in sync" : "DESYNCED");
    }

    std::printf("\nper-stage work totals (the Fig 10 drivers):\n");
    std::uint64_t luma_blocks = 0;
    for (int s = 0; s < 3; ++s)
        for (int frac = 0; frac < 16; ++frac)
            luma_blocks += counts.lumaMc[s][frac];
    std::printf("  luma MC blocks:     %llu\n",
                (unsigned long long)luma_blocks);
    std::printf("  chroma MC blocks:   %llu (+%llu copies)\n",
                (unsigned long long)(counts.chromaMc[0] +
                                     counts.chromaMc[1] +
                                     counts.chromaMc[2]),
                (unsigned long long)counts.chromaCopy);
    std::printf("  coded 4x4 blocks:   %llu\n",
                (unsigned long long)counts.idct4x4);
    std::printf("  deblocked MBs:      %llu\n",
                (unsigned long long)counts.deblockMbs);
    std::printf("  CABAC bins:         %llu\n",
                (unsigned long long)counts.cabacBins);
    std::printf("  video-out bytes:    %llu\n",
                (unsigned long long)counts.videoOutBytes);
    return 0;
}
