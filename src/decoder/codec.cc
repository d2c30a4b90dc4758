#include "decoder/codec.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "decoder/transform.hh"
#include "h264/chroma_ref.hh"
#include "h264/deblock.hh"
#include "h264/idct_ref.hh"
#include "h264/luma_ref.hh"

namespace uasim::dec {

void
validate(const CodecConfig &cfg)
{
    if (cfg.qp < 0 || cfg.qp > maxQp) {
        throw std::invalid_argument("qp " + std::to_string(cfg.qp) +
                                    " out of range [0, " +
                                    std::to_string(maxQp) + "]");
    }
}

StageCounts &
StageCounts::operator+=(const StageCounts &o)
{
    for (int s = 0; s < 3; ++s) {
        for (int f = 0; f < 16; ++f)
            lumaMc[s][f] += o.lumaMc[s][f];
        chromaMc[s] += o.chromaMc[s];
    }
    chromaCopy += o.chromaCopy;
    idct4x4 += o.idct4x4;
    deblockMbs += o.deblockMbs;
    cabacBins += o.cabacBins;
    videoOutBytes += o.videoOutBytes;
    mbs += o.mbs;
    frames += o.frames;
    return *this;
}

namespace {

int
sizeIndex(int w)
{
    return w == 16 ? 0 : (w == 8 ? 1 : 2);
}

/// Clamp the integer part of a motion vector so every filter tap stays
/// inside the padded plane. Identical on both codec sides.
int
clampInt(int v, int limit_lo, int limit_hi)
{
    return std::clamp(v, limit_lo, limit_hi);
}

/// Luma MC of one partition from @p ref into @p dst (both padded).
void
mcLuma(const video::Plane &ref, video::Plane &dst, int x, int y, int w,
       int h, int mvx_q, int mvy_q)
{
    int fx = mvx_q & 3, fy = mvy_q & 3;
    int ix = clampInt(x + (mvx_q >> 2), -24, ref.width() + 24 - w);
    int iy = clampInt(y + (mvy_q >> 2), -24, ref.height() + 24 - h);
    h264::lumaMcRef(ref.pixel(ix, iy), ref.stride(), dst.pixel(x, y),
                    dst.stride(), w, h, fx, fy);
}

/// Chroma MC (eighth-pel) of one partition's chroma block.
void
mcChroma(const video::Plane &ref, video::Plane &dst, int cx, int cy,
         int cw, int ch, int mvx_q, int mvy_q)
{
    int dx = mvx_q & 7, dy = mvy_q & 7;
    int ix = clampInt(cx + (mvx_q >> 3), -16, ref.width() + 16 - cw);
    int iy = clampInt(cy + (mvy_q >> 3), -16, ref.height() + 16 - ch);
    h264::chromaMcRef(ref.pixel(ix, iy), ref.stride(),
                      dst.pixel(cx, cy), dst.stride(), cw, ch, dx, dy);
}

/// Flat intra prediction (DC 128) over a rectangle.
void
predFlat(video::Plane &p, int x, int y, int w, int h)
{
    for (int yy = 0; yy < h; ++yy)
        std::memset(p.pixel(x, y + yy), 128, w);
}

struct ParsedPartition {
    int x, y, w;
    int mvx, mvy;
};

} // namespace

// ----------------------------------------------------------------------
// Encoder
// ----------------------------------------------------------------------

struct MiniEncoder::Impl {
    explicit Impl(const CodecConfig &cfg)
        : cfg(cfg), seq(cfg.seq), model(cfg.seq),
          source(cfg.seq.width, cfg.seq.height),
          recon(cfg.seq.width, cfg.seq.height),
          ref(cfg.seq.width, cfg.seq.height)
    {
    }

    /// Transform-code one 4x4 residual block of (src - pred) and
    /// reconstruct into @p plane. @return true if any level coded.
    bool
    codeBlock(h264::CabacEncoder &enc, ContextSet &ctx,
              const video::Plane &src_plane, video::Plane &plane,
              int x, int y)
    {
        std::int16_t res[16], coeff[16], lev[16], deq[16];
        for (int j = 0; j < 4; ++j) {
            for (int i = 0; i < 4; ++i) {
                res[4 * j + i] = static_cast<std::int16_t>(
                    src_plane.at(x + i, y + j) - plane.at(x + i, y + j));
            }
        }
        forward4x4(res, coeff);
        quant4x4(coeff, lev, cfg.qp);
        bool coded = false;
        for (int i = 0; i < 16; ++i)
            coded |= lev[i] != 0;
        enc.encodeBin(ctx.coded, coded ? 1 : 0);
        if (!coded)
            return false;
        for (int i = 0; i < 16; ++i) {
            int sig = lev[i] != 0;
            enc.encodeBin(ctx.sig[std::min(i, 7)], sig);
            if (sig) {
                enc.encodeUEG(ctx.level, 6,
                              static_cast<unsigned>(
                                  std::abs(lev[i]) - 1));
                enc.encodeBypass(lev[i] < 0);
            }
        }
        dequant4x4(lev, deq, cfg.qp);
        h264::idct4x4AddRef(plane.pixel(x, y), plane.stride(), deq);
        return true;
    }

    CodecConfig cfg;
    video::SyntheticSequence seq;
    video::MotionModel model;
    video::Frame source;
    video::Frame recon;
    video::Frame ref;
    std::vector<bool> mbIntra;
};

MiniEncoder::MiniEncoder(const CodecConfig &cfg)
{
    validate(cfg);
    impl_ = std::make_unique<Impl>(cfg);
}

MiniEncoder::~MiniEncoder() = default;

const video::Frame &
MiniEncoder::recon() const
{
    return impl_->recon;
}

const video::Frame &
MiniEncoder::source() const
{
    return impl_->source;
}

EncodedFrame
MiniEncoder::encodeFrame(int idx)
{
    Impl &im = *impl_;
    const int mbw = (im.cfg.seq.width + 15) / 16;
    const int mbh = (im.cfg.seq.height + 15) / 16;

    im.seq.render(idx, im.source);
    auto parts = im.model.framePartitions(idx);

    h264::CabacEncoder enc;
    ContextSet ctx;
    EncodedFrame out;
    out.intraOnly = idx == 0;
    im.mbIntra.assign(std::size_t(mbw) * mbh, false);

    int pmx = 0, pmy = 0;  // MV predictor, raster running
    std::size_t pi = 0;
    for (int my = 0; my < mbh; ++my) {
        for (int mx = 0; mx < mbw; ++mx) {
            const int x0 = mx * 16, y0 = my * 16;
            // Collect this MB's partitions from the model.
            const video::Partition &head = parts[pi];
            bool inter = head.inter && !out.intraOnly;
            int nparts = 1;
            if (head.inter)
                nparts = head.w == 16 ? 1 : (head.w == 8 ? 4 : 16);

            if (!out.intraOnly)
                enc.encodeBin(ctx.mbInter, inter ? 1 : 0);

            if (!inter) {
                im.mbIntra[std::size_t(my) * mbw + mx] = true;
                predFlat(im.recon.luma(), x0, y0, 16, 16);
                predFlat(im.recon.cb(), x0 / 2, y0 / 2, 8, 8);
                predFlat(im.recon.cr(), x0 / 2, y0 / 2, 8, 8);
            } else {
                int w = head.w;
                enc.encodeBin(ctx.part[0], w == 16 ? 0 : 1);
                if (w != 16)
                    enc.encodeBin(ctx.part[1], w == 8 ? 0 : 1);
                for (int k = 0; k < nparts; ++k) {
                    const video::Partition &p = parts[pi + k];
                    int dx = p.mvxQ - pmx, dy = p.mvyQ - pmy;
                    enc.encodeUEG(ctx.mvd, 6,
                                  static_cast<unsigned>(std::abs(dx)));
                    if (dx)
                        enc.encodeBypass(dx < 0);
                    enc.encodeUEG(ctx.mvd, 6,
                                  static_cast<unsigned>(std::abs(dy)));
                    if (dy)
                        enc.encodeBypass(dy < 0);
                    pmx = p.mvxQ;
                    pmy = p.mvyQ;
                    mcLuma(im.ref.luma(), im.recon.luma(), p.x, p.y,
                           p.w, p.h, p.mvxQ, p.mvyQ);
                    mcChroma(im.ref.cb(), im.recon.cb(), p.x / 2,
                             p.y / 2, p.w / 2, p.h / 2, p.mvxQ, p.mvyQ);
                    mcChroma(im.ref.cr(), im.recon.cr(), p.x / 2,
                             p.y / 2, p.w / 2, p.h / 2, p.mvxQ, p.mvyQ);
                }
            }
            pi += nparts;

            // Residuals: 16 luma 4x4 blocks + 2x4 chroma blocks.
            for (int b = 0; b < 16; ++b) {
                im.codeBlock(enc, ctx, im.source.luma(),
                             im.recon.luma(), x0 + 4 * (b & 3),
                             y0 + 4 * (b >> 2));
            }
            for (int b = 0; b < 4; ++b) {
                im.codeBlock(enc, ctx, im.source.cb(), im.recon.cb(),
                             x0 / 2 + 4 * (b & 1), y0 / 2 + 4 * (b >> 1));
            }
            for (int b = 0; b < 4; ++b) {
                im.codeBlock(enc, ctx, im.source.cr(), im.recon.cr(),
                             x0 / 2 + 4 * (b & 1), y0 / 2 + 4 * (b >> 1));
            }
        }
    }

    // In-loop deblock + reference update.
    for (int my = 0; my < mbh; ++my) {
        for (int mx = 0; mx < mbw; ++mx) {
            h264::deblockMacroblockRef(
                im.recon.luma().pixel(mx * 16, my * 16),
                im.recon.luma().stride(), im.cfg.qp,
                im.mbIntra[std::size_t(my) * mbw + mx]);
        }
    }
    im.recon.extendEdges();
    // recon becomes the reference for the next frame.
    for (int y = 0; y < im.recon.luma().height(); ++y) {
        std::memcpy(im.ref.luma().pixel(0, y),
                    im.recon.luma().pixel(0, y),
                    std::size_t(im.recon.luma().width()));
    }
    for (int y = 0; y < im.recon.cb().height(); ++y) {
        std::memcpy(im.ref.cb().pixel(0, y), im.recon.cb().pixel(0, y),
                    std::size_t(im.recon.cb().width()));
        std::memcpy(im.ref.cr().pixel(0, y), im.recon.cr().pixel(0, y),
                    std::size_t(im.recon.cr().width()));
    }
    im.ref.extendEdges();

    out.bins = enc.binsEncoded();
    out.bits = enc.finish();
    return out;
}

// ----------------------------------------------------------------------
// Decoder
// ----------------------------------------------------------------------

struct MiniDecoder::Impl {
    explicit Impl(const CodecConfig &cfg)
        : cfg(cfg), picture(cfg.seq.width, cfg.seq.height),
          ref(cfg.seq.width, cfg.seq.height)
    {
    }

    bool
    decodeBlock(h264::CabacDecoder &d, ContextSet &ctx,
                video::Plane &plane, int x, int y)
    {
        if (!d.decodeBin(ctx.coded))
            return false;
        std::int16_t lev[16], deq[16];
        for (int i = 0; i < 16; ++i) {
            if (d.decodeBin(ctx.sig[std::min(i, 7)])) {
                int mag = static_cast<int>(d.decodeUEG(ctx.level, 6)) + 1;
                lev[i] = static_cast<std::int16_t>(
                    d.decodeBypass() ? -mag : mag);
            } else {
                lev[i] = 0;
            }
        }
        dequant4x4(lev, deq, cfg.qp);
        h264::idct4x4AddRef(plane.pixel(x, y), plane.stride(), deq);
        return true;
    }

    CodecConfig cfg;
    video::Frame picture;
    video::Frame ref;
    std::vector<bool> mbIntra;
};

MiniDecoder::MiniDecoder(const CodecConfig &cfg)
{
    validate(cfg);
    impl_ = std::make_unique<Impl>(cfg);
}

MiniDecoder::~MiniDecoder() = default;

const video::Frame &
MiniDecoder::picture() const
{
    return impl_->picture;
}

void
MiniDecoder::decodeFrame(const EncodedFrame &frame, StageCounts &counts)
{
    Impl &im = *impl_;
    const int mbw = (im.cfg.seq.width + 15) / 16;
    const int mbh = (im.cfg.seq.height + 15) / 16;

    h264::CabacDecoder d(frame.bits.data(), frame.bits.size());
    ContextSet ctx;
    im.mbIntra.assign(std::size_t(mbw) * mbh, false);

    int pmx = 0, pmy = 0;
    for (int my = 0; my < mbh; ++my) {
        for (int mx = 0; mx < mbw; ++mx) {
            const int x0 = mx * 16, y0 = my * 16;
            bool inter = false;
            if (!frame.intraOnly)
                inter = d.decodeBin(ctx.mbInter) != 0;

            if (!inter) {
                im.mbIntra[std::size_t(my) * mbw + mx] = true;
                predFlat(im.picture.luma(), x0, y0, 16, 16);
                predFlat(im.picture.cb(), x0 / 2, y0 / 2, 8, 8);
                predFlat(im.picture.cr(), x0 / 2, y0 / 2, 8, 8);
            } else {
                int w = 16;
                if (d.decodeBin(ctx.part[0]))
                    w = d.decodeBin(ctx.part[1]) ? 4 : 8;
                int nparts = w == 16 ? 1 : (w == 8 ? 4 : 16);
                int per_row = 16 / w;
                for (int k = 0; k < nparts; ++k) {
                    int px = x0 + w * (k % per_row);
                    int py = y0 + w * (k / per_row);
                    int adx = static_cast<int>(d.decodeUEG(ctx.mvd, 6));
                    int dx = adx && d.decodeBypass() ? -adx : adx;
                    int ady = static_cast<int>(d.decodeUEG(ctx.mvd, 6));
                    int dy = ady && d.decodeBypass() ? -ady : ady;
                    int mvx = pmx + dx, mvy = pmy + dy;
                    pmx = mvx;
                    pmy = mvy;

                    mcLuma(im.ref.luma(), im.picture.luma(), px, py, w,
                           w, mvx, mvy);
                    mcChroma(im.ref.cb(), im.picture.cb(), px / 2,
                             py / 2, w / 2, w / 2, mvx, mvy);
                    mcChroma(im.ref.cr(), im.picture.cr(), px / 2,
                             py / 2, w / 2, w / 2, mvx, mvy);

                    ++counts.lumaMc[sizeIndex(w)]
                                   [(mvy & 3) * 4 + (mvx & 3)];
                    int csize = sizeIndex(w);  // 8->0? map below
                    if ((mvx & 7) || (mvy & 7))
                        counts.chromaMc[csize] += 2;  // cb + cr
                    else
                        counts.chromaCopy += 2;
                }
            }

            for (int b = 0; b < 16; ++b) {
                counts.idct4x4 +=
                    im.decodeBlock(d, ctx, im.picture.luma(),
                                   x0 + 4 * (b & 3), y0 + 4 * (b >> 2));
            }
            for (int b = 0; b < 4; ++b) {
                counts.idct4x4 += im.decodeBlock(
                    d, ctx, im.picture.cb(), x0 / 2 + 4 * (b & 1),
                    y0 / 2 + 4 * (b >> 1));
            }
            for (int b = 0; b < 4; ++b) {
                counts.idct4x4 += im.decodeBlock(
                    d, ctx, im.picture.cr(), x0 / 2 + 4 * (b & 1),
                    y0 / 2 + 4 * (b >> 1));
            }
            ++counts.mbs;
        }
    }

    for (int my = 0; my < mbh; ++my) {
        for (int mx = 0; mx < mbw; ++mx) {
            h264::deblockMacroblockRef(
                im.picture.luma().pixel(mx * 16, my * 16),
                im.picture.luma().stride(), im.cfg.qp,
                im.mbIntra[std::size_t(my) * mbw + mx]);
        }
    }
    im.picture.extendEdges();
    counts.deblockMbs += std::uint64_t(mbw) * mbh;
    counts.cabacBins += d.binsDecoded();
    counts.videoOutBytes +=
        std::uint64_t(im.cfg.seq.width) * im.cfg.seq.height * 3 / 2;
    ++counts.frames;

    // picture -> reference for the next frame.
    for (int y = 0; y < im.picture.luma().height(); ++y) {
        std::memcpy(im.ref.luma().pixel(0, y),
                    im.picture.luma().pixel(0, y),
                    std::size_t(im.picture.luma().width()));
    }
    for (int y = 0; y < im.picture.cb().height(); ++y) {
        std::memcpy(im.ref.cb().pixel(0, y),
                    im.picture.cb().pixel(0, y),
                    std::size_t(im.picture.cb().width()));
        std::memcpy(im.ref.cr().pixel(0, y),
                    im.picture.cr().pixel(0, y),
                    std::size_t(im.picture.cr().width()));
    }
    im.ref.extendEdges();
}

double
lumaPsnr(const video::Frame &a, const video::Frame &b)
{
    const video::Plane &pa = a.luma();
    const video::Plane &pb = b.luma();
    double mse = 0;
    for (int y = 0; y < pa.height(); ++y) {
        for (int x = 0; x < pa.width(); ++x) {
            double d = double(pa.at(x, y)) - double(pb.at(x, y));
            mse += d * d;
        }
    }
    mse /= double(pa.width()) * pa.height();
    if (mse <= 0)
        return 99.0;
    return 10.0 * std::log10(255.0 * 255.0 / mse);
}

} // namespace uasim::dec
