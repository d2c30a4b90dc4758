/**
 * @file
 * Mini-codec integration tests: encoder/decoder synchronization,
 * quality, stage counting, and the profile model.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "decoder/codec.hh"
#include "decoder/profile.hh"
#include "decoder/transform.hh"
#include "h264/idct_ref.hh"
#include "video/rng.hh"

using namespace uasim;
using dec::CodecConfig;
using dec::MiniDecoder;
using dec::MiniEncoder;
using dec::StageCounts;

namespace {

CodecConfig
smallConfig(video::Content content, int qp = 28, int frames = 3)
{
    CodecConfig cfg;
    cfg.seq = video::makeParams(content, {176, 144, "qcif"});
    cfg.qp = qp;
    cfg.frames = frames;
    return cfg;
}

} // namespace

TEST(Transform, FullChainReconstructsAtLowQp)
{
    // The raw forward/inverse pair is not unit-scale: the standard's
    // normalization lives in the quant/dequant multipliers. At the
    // lowest QPs the full chain forward -> quant -> dequant -> idct
    // reconstructs the residual within a couple of LSBs.
    video::Rng rng(8);
    for (int iter = 0; iter < 200; ++iter) {
        std::int16_t res[16], coeff[16], lev[16], deq[16];
        std::uint8_t base[16], out[16];
        for (int i = 0; i < 16; ++i) {
            base[i] = std::uint8_t(60 + rng.below(100));
            res[i] = std::int16_t(rng.range(-50, 50));
            out[i] = base[i];
        }
        dec::forward4x4(res, coeff);
        dec::quant4x4(coeff, lev, 0);
        dec::dequant4x4(lev, deq, 0);
        h264::idct4x4AddRef(out, 4, deq);
        for (int i = 0; i < 16; ++i) {
            int want = std::clamp(base[i] + res[i], 0, 255);
            ASSERT_LE(std::abs(out[i] - want), 2)
                << "iter " << iter << " i " << i;
        }
    }
}

TEST(Transform, QuantDequantProperties)
{
    std::int16_t res[16], coeff[16], lev[16], deq[16];
    for (int i = 0; i < 16; ++i)
        res[i] = std::int16_t(10 * i - 70);
    dec::forward4x4(res, coeff);
    dec::quant4x4(coeff, lev, 30);
    dec::dequant4x4(lev, deq, 30);
    for (int i = 0; i < 16; ++i) {
        // Sign preserved, zeros stay zero.
        if (lev[i] == 0) {
            EXPECT_EQ(deq[i], 0) << i;
        } else {
            EXPECT_EQ(deq[i] > 0, coeff[i] > 0) << i;
            // Dequant rescales into the IDCT input domain: bounded by
            // a small constant times the coefficient magnitude.
            EXPECT_LE(std::abs(deq[i]), 6 * std::abs(coeff[i]) + 64)
                << i;
        }
    }
    // Higher QP quantizes harder.
    std::int16_t lev_hi[16];
    dec::quant4x4(coeff, lev_hi, 44);
    long sum_lo = 0, sum_hi = 0;
    for (int i = 0; i < 16; ++i) {
        sum_lo += std::abs(lev[i]);
        sum_hi += std::abs(lev_hi[i]);
    }
    EXPECT_LT(sum_hi, sum_lo);
}

TEST(Codec, EncoderDecoderStayBitExactInSync)
{
    for (auto content : {video::Content::RushHour,
                         video::Content::Riverbed}) {
        CodecConfig cfg = smallConfig(content);
        MiniEncoder enc(cfg);
        MiniDecoder dec(cfg);
        StageCounts counts;
        for (int f = 0; f < cfg.frames; ++f) {
            auto ef = enc.encodeFrame(f);
            dec.decodeFrame(ef, counts);
            const auto &a = enc.recon().luma();
            const auto &b = dec.picture().luma();
            for (int y = 0; y < a.height(); ++y) {
                for (int x = 0; x < a.width(); ++x) {
                    ASSERT_EQ(a.at(x, y), b.at(x, y))
                        << "frame " << f << " (" << x << "," << y << ")";
                }
            }
        }
    }
}

TEST(Codec, ReasonableQuality)
{
    CodecConfig cfg = smallConfig(video::Content::Pedestrian, 26);
    MiniEncoder enc(cfg);
    MiniDecoder dec(cfg);
    StageCounts counts;
    for (int f = 0; f < cfg.frames; ++f) {
        auto ef = enc.encodeFrame(f);
        dec.decodeFrame(ef, counts);
        EXPECT_GT(dec::lumaPsnr(enc.source(), dec.picture()), 28.0)
            << "frame " << f;
        EXPECT_GT(ef.bits.size(), 100u);
    }
}

TEST(Codec, HigherQpMeansFewerBits)
{
    auto bits_at = [&](int qp) {
        CodecConfig cfg = smallConfig(video::Content::Pedestrian, qp, 2);
        MiniEncoder enc(cfg);
        std::size_t total = 0;
        for (int f = 0; f < cfg.frames; ++f)
            total += enc.encodeFrame(f).bits.size();
        return total;
    };
    EXPECT_GT(bits_at(22), bits_at(38));
}

TEST(Codec, QpOutsideTableRangeRejected)
{
    // The quantization tables index qp % 6 and the deblocking tables
    // have one row per QP 0..51: anything else would read out of
    // bounds, so both ends refuse it up front.
    for (int qp : {-5, -1, dec::maxQp + 1, 99, 1000000}) {
        CodecConfig cfg = smallConfig(video::Content::BlueSky, qp, 1);
        EXPECT_THROW(dec::validate(cfg), std::invalid_argument) << qp;
        EXPECT_THROW(MiniEncoder enc(cfg), std::invalid_argument) << qp;
        EXPECT_THROW(MiniDecoder decoder(cfg), std::invalid_argument)
            << qp;
    }
    for (int qp : {0, dec::maxQp}) {
        CodecConfig cfg = smallConfig(video::Content::BlueSky, qp, 1);
        EXPECT_NO_THROW(dec::validate(cfg)) << qp;
        MiniEncoder enc(cfg);
        MiniDecoder decoder(cfg);
        StageCounts counts;
        decoder.decodeFrame(enc.encodeFrame(0), counts);
        EXPECT_EQ(counts.frames, 1u) << qp;
    }
}

TEST(Codec, StageCountsConsistent)
{
    CodecConfig cfg = smallConfig(video::Content::BlueSky, 30, 3);
    MiniEncoder enc(cfg);
    MiniDecoder dec(cfg);
    StageCounts counts;
    for (int f = 0; f < cfg.frames; ++f) {
        auto ef = enc.encodeFrame(f);
        dec.decodeFrame(ef, counts);
    }
    const std::uint64_t mbs_per_frame = (176 / 16) * (144 / 16);
    EXPECT_EQ(counts.mbs, mbs_per_frame * 3);
    EXPECT_EQ(counts.deblockMbs, mbs_per_frame * 3);
    EXPECT_EQ(counts.frames, 3u);
    EXPECT_GT(counts.cabacBins, 1000u);
    EXPECT_GT(counts.idct4x4, 100u);
    EXPECT_EQ(counts.videoOutBytes, std::uint64_t(176) * 144 * 3 / 2 * 3);
    // Some MC happened (frames 1, 2 are predicted).
    std::uint64_t mc_total = 0;
    for (int s = 0; s < 3; ++s)
        for (int f = 0; f < 16; ++f)
            mc_total += counts.lumaMc[s][f];
    EXPECT_GT(mc_total, 50u);
}

TEST(Codec, IntraOnlyFirstFrameHasNoMc)
{
    CodecConfig cfg = smallConfig(video::Content::RushHour, 30, 1);
    MiniEncoder enc(cfg);
    MiniDecoder dec(cfg);
    StageCounts counts;
    dec.decodeFrame(enc.encodeFrame(0), counts);
    std::uint64_t mc_total = 0;
    for (int s = 0; s < 3; ++s)
        for (int f = 0; f < 16; ++f)
            mc_total += counts.lumaMc[s][f];
    EXPECT_EQ(mc_total, 0u);
}

TEST(Profile, CostsAndEstimateShape)
{
    CodecConfig cfg = smallConfig(video::Content::Pedestrian, 30, 2);
    MiniEncoder enc(cfg);
    MiniDecoder dec(cfg);
    StageCounts counts;
    for (int f = 0; f < cfg.frames; ++f)
        dec.decodeFrame(enc.encodeFrame(f), counts);

    auto cfg4 = timing::CoreConfig::fourWayOoO();
    auto scalar = dec::measureStageCosts(h264::Variant::Scalar, cfg4);
    auto altivec = dec::measureStageCosts(h264::Variant::Altivec, cfg4);
    auto unaligned =
        dec::measureStageCosts(h264::Variant::Unaligned, cfg4);

    // Vectorization helps the MC kernels; CABAC/deblock identical.
    EXPECT_LT(altivec.lumaMc[0][10], scalar.lumaMc[0][10]);
    EXPECT_LT(unaligned.lumaMc[0][10], altivec.lumaMc[0][10]);
    EXPECT_NEAR(altivec.cabacBin, scalar.cabacBin,
                scalar.cabacBin * 0.02);
    EXPECT_NEAR(altivec.deblockMb, scalar.deblockMb,
                scalar.deblockMb * 0.02);

    auto es = dec::estimateProfile(counts, scalar, 0.0);
    auto ea = dec::estimateProfile(counts, altivec, 0.0);
    auto eu = dec::estimateProfile(counts, unaligned, 0.0);
    EXPECT_GT(es.totalCycles(), ea.totalCycles());
    EXPECT_GT(ea.totalCycles(), eu.totalCycles());
    EXPECT_DOUBLE_EQ(ea.deblock, es.deblock);
    EXPECT_DOUBLE_EQ(ea.cabac, es.cabac);
    EXPECT_GT(es.seconds(2.0e9), 0.0);
}
