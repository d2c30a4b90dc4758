#include "decoder/profile.hh"

#include <optional>
#include <utility>

#include "decoder/cabac_traced.hh"
#include "h264/chroma_kernels.hh"
#include "h264/deblock.hh"
#include "h264/idct_kernels.hh"
#include "h264/luma_kernels.hh"
#include "trace/addrmap.hh"
#include "trace/emitter.hh"
#include "video/rng.hh"

namespace uasim::dec {

using h264::KernelCtx;
using h264::Variant;

namespace {

constexpr int planeDim = 192;
constexpr int reps = 24;

/// Measurement fixture: padded planes streaming into any trace sink.
struct Fixture {
    explicit Fixture(trace::TraceSink &sink, std::uint64_t seed)
        : src(planeDim, planeDim), dst(planeDim, planeDim), rng(seed)
    {
        trace::AddrNormalizer norm;
        norm.addRegion(src.paddedBase(), src.paddedSize(), 0x10000000);
        norm.addRegion(dst.paddedBase(), dst.paddedSize(), 0x12000000);
        em.emplace(sink, std::move(norm));
        ctx.emplace(*em);
        for (int y = 0; y < planeDim; ++y) {
            for (int x = 0; x < planeDim; ++x) {
                src.at(x, y) = video::hashNoise(seed, x, y);
                dst.at(x, y) = video::hashNoise(seed ^ 1, x, y);
            }
        }
        src.extendEdges();
    }

    std::optional<trace::Emitter> em;
    std::optional<KernelCtx> ctx;
    video::Plane src;
    video::Plane dst;
    video::Rng rng;
};

/// Random MC-like source pointer with arbitrary (addr % 16).
const std::uint8_t *
randomSrc(Fixture &f, int size)
{
    int x = int(f.rng.range(24, planeDim - size - 24));
    int y = int(f.rng.range(24, planeDim - size - 24));
    return f.src.pixel(x, y);
}

/// Destination at a partition-aligned position.
std::uint8_t *
alignedDst(Fixture &f, int size)
{
    int cells = (planeDim - 32) / size;
    int x = size * int(f.rng.below(cells / 2)) + 16;
    int y = size * int(f.rng.below(cells / 2)) + 16;
    return f.dst.pixel(x, y);
}

} // namespace

std::vector<StageCostJob>
stageCostJobs(Variant variant)
{
    std::vector<StageCostJob> jobs;
    const int sizes[3] = {16, 8, 4};

    // ---- Luma MC, per size and fractional position ----
    for (int si = 0; si < 3; ++si) {
        for (int frac = 0; frac < 16; ++frac) {
            const int size = sizes[si];
            jobs.push_back(
                {"luma" + std::to_string(size) + "_f" +
                     std::to_string(frac),
                 reps,
                 [variant, si, frac, size](trace::TraceSink &sink) {
                     Fixture f(sink, 0x1000 + si * 16 + frac);
                     for (int r = 0; r < reps; ++r) {
                         h264::lumaMc(*f.ctx, variant,
                                      randomSrc(f, size + 8),
                                      f.src.stride(),
                                      alignedDst(f, size),
                                      f.dst.stride(), size, size,
                                      frac & 3, frac >> 2);
                     }
                 },
                 [si, frac](StageCosts &c, double v) {
                     c.lumaMc[si][frac] = v;
                 }});
        }
    }

    // ---- Chroma MC: 8x8, 4x4 (vectorized), 2x2 (always scalar) ----
    const int csizes[3] = {8, 4, 2};
    for (int si = 0; si < 3; ++si) {
        const int csize = csizes[si];
        jobs.push_back(
            {"chroma" + std::to_string(csize), reps,
             [variant, si, csize](trace::TraceSink &sink) {
                 Fixture f(sink, 0x2000 + si);
                 for (int r = 0; r < reps; ++r) {
                     int dx = 1 + int(f.rng.below(7));
                     int dy = int(f.rng.below(8));
                     if (csize == 2) {
                         h264::chromaMcScalar(*f.ctx, randomSrc(f, 16),
                                              f.src.stride(),
                                              alignedDst(f, csize),
                                              f.dst.stride(), csize,
                                              dx, dy);
                     } else {
                         h264::chromaMcKernel(*f.ctx, variant,
                                              randomSrc(f, 16),
                                              f.src.stride(),
                                              alignedDst(f, csize),
                                              f.dst.stride(), csize,
                                              dx, dy);
                     }
                 }
             },
             [si](StageCosts &c, double v) { c.chromaMc[si] = v; }});
    }
    jobs.push_back(
        {"chroma_copy", reps,
         [variant](trace::TraceSink &sink) {
             // Zero-fraction chroma: plain copy through the luma
             // copy path.
             Fixture f(sink, 0x2100);
             for (int r = 0; r < reps; ++r) {
                 h264::lumaCopy(*f.ctx, variant, randomSrc(f, 16),
                                f.src.stride(), alignedDst(f, 8),
                                f.dst.stride(), 8, 8);
             }
         },
         [](StageCosts &c, double v) { c.chromaCopy = v; }});

    // ---- IDCT 4x4 (per coded block) ----
    jobs.push_back(
        {"idct4x4", reps * 4,
         [variant](trace::TraceSink &sink) {
             Fixture f(sink, 0x3000);
             alignas(16) std::int16_t block[16];
             for (int r = 0; r < reps * 4; ++r) {
                 for (auto &c : block)
                     c = std::int16_t(f.rng.range(-64, 64));
                 h264::idct4x4Add(*f.ctx, variant, alignedDst(f, 4),
                                  f.dst.stride(), block);
             }
         },
         [](StageCosts &c, double v) { c.idct4x4 = v; }});

    // ---- Deblocking (scalar in every variant) ----
    jobs.push_back(
        {"deblock", reps,
         [](trace::TraceSink &sink) {
             Fixture f(sink, 0x4000);
             for (int r = 0; r < reps; ++r) {
                 h264::deblockMacroblockScalar(*f.ctx,
                                               alignedDst(f, 16),
                                               f.dst.stride(), 30,
                                               (r & 3) == 0);
             }
         },
         [](StageCosts &c, double v) { c.deblockMb = v; }});

    // ---- CABAC bin decode (scalar in every variant) ----
    const int nbins = 2000;
    jobs.push_back(
        {"cabac", nbins,
         [](trace::TraceSink &sink) {
             // Encode a synthetic bin stream, then decode it traced.
             h264::CabacEncoder enc;
             h264::CabacContext ectx[8];
             video::Rng rng(0x5000);
             std::vector<int> ref_bins;
             for (int i = 0; i < nbins; ++i) {
                 int c = int(rng.below(8));
                 int bin = rng.chance(0.3 + 0.05 * c) ? 1 : 0;
                 enc.encodeBin(ectx[c], bin);
                 ref_bins.push_back(c);
             }
             auto bits = enc.finish();

             Fixture f(sink, 0x5001);
             // Register every buffer the traced decoder touches so
             // the measured cost is identical across variants and
             // runs.
             trace::AddrNormalizer &map = f.em->addrMap();
             map.addRegion(bits.data(), bits.size(), 0x18000000);
             TracedCabacDecoder dec(*f.ctx, bits.data(), bits.size(),
                                    8);
             map.addRegion(dec.tableData(), dec.tableSize(), 0x18100000);
             map.addRegion(dec.ctxData(), dec.ctxSize(), 0x18200000);
             for (int i = 0; i < nbins; ++i)
                 dec.decodeBin(ref_bins[i]);
         },
         [](StageCosts &c, double v) { c.cabacBin = v; }});

    // ---- Video out (aligned frame copy) ----
    const int bytes = 128 * 64;
    jobs.push_back(
        {"video_out", bytes,
         [variant](trace::TraceSink &sink) {
             Fixture f(sink, 0x6000);
             auto &s = f.ctx->so;
             auto &v = f.ctx->vo;
             if (variant == Variant::Scalar) {
                 vmx::CPtr sp = s.lip(f.src.pixel(0, 0));
                 vmx::Ptr dp = s.lip(f.dst.pixel(0, 0));
                 for (int off = 0; off < bytes; off += 8) {
                     vmx::SInt w = s.loadS64(sp, off);
                     s.storeU64(dp, off, w);
                     if ((off & 63) == 56)
                         s.loopBranch(off + 8 < bytes);
                 }
             } else {
                 vmx::CPtr sp = s.lip(f.src.pixel(0, 0));
                 vmx::Ptr dp = s.lip(f.dst.pixel(0, 0));
                 for (int off = 0; off < bytes; off += 16) {
                     vmx::Vec w = v.lvx(sp, off);
                     v.stvx(w, dp, off);
                     if ((off & 63) == 48)
                         s.loopBranch(off + 16 < bytes);
                 }
             }
         },
         [](StageCosts &c, double v) { c.videoOutByte = v; }});

    return jobs;
}

ProfileEstimate
estimateProfile(const StageCounts &counts, const StageCosts &costs,
                double others_cycles)
{
    ProfileEstimate e;
    for (int si = 0; si < 3; ++si) {
        for (int frac = 0; frac < 16; ++frac)
            e.mc += double(counts.lumaMc[si][frac]) *
                    costs.lumaMc[si][frac];
        e.mc += double(counts.chromaMc[si]) * costs.chromaMc[si];
    }
    e.mc += double(counts.chromaCopy) * costs.chromaCopy;
    e.idct = double(counts.idct4x4) * costs.idct4x4;
    e.deblock = double(counts.deblockMbs) * costs.deblockMb;
    e.cabac = double(counts.cabacBins) * costs.cabacBin;
    e.videoOut = double(counts.videoOutBytes) * costs.videoOutByte;
    e.others = others_cycles;
    return e;
}

} // namespace uasim::dec
