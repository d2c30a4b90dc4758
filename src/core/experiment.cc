#include "core/experiment.hh"

#include <cstring>
#include <utility>

#include "h264/chroma_kernels.hh"
#include "h264/chroma_ref.hh"
#include "h264/idct_kernels.hh"
#include "h264/idct_ref.hh"
#include "h264/luma_kernels.hh"
#include "h264/luma_ref.hh"
#include "h264/sad_kernels.hh"
#include "h264/sad_ref.hh"
#include "timing/model.hh"
#include "trace/addrmap.hh"
#include "vmx/buffer.hh"

namespace uasim::core {

using h264::KernelCtx;
using h264::KernelId;
using h264::Variant;

std::string
KernelSpec::name() const
{
    std::string n{h264::kernelName(kernel)};
    n += std::to_string(size) + "x" + std::to_string(size);
    if (matrix)
        n += "_matrix";
    return n;
}

bool
KernelSpec::traceStateInvariant(Variant variant) const
{
    return !(kernel == KernelId::Idct && variant == Variant::Scalar);
}

std::vector<KernelSpec>
paperKernelGrid()
{
    return {
        {KernelId::LumaMc, 16, false},
        {KernelId::LumaMc, 8, false},
        {KernelId::LumaMc, 4, false},
        {KernelId::ChromaMc, 8, false},
        {KernelId::ChromaMc, 4, false},
        {KernelId::Idct, 8, false},
        {KernelId::Idct, 4, false},
        {KernelId::Idct, 4, true},
        {KernelId::Sad, 16, false},
        {KernelId::Sad, 8, false},
        {KernelId::Sad, 4, false},
    };
}

std::vector<KernelSpec>
tableThreeSpecs()
{
    return {
        {KernelId::LumaMc, 16, false},
        {KernelId::ChromaMc, 8, false},
        {KernelId::Idct, 4, false},
        {KernelId::Idct, 4, true},
        {KernelId::Sad, 16, false},
    };
}

namespace {

/// Per-iteration input parameters, identical across variants.
struct IterParams {
    int bx = 0, by = 0;    //!< destination block position
    int dx = 0, dy = 0;    //!< integer source displacement (MC / SAD)
    int cfx = 2, cfy = 2;  //!< fractional part (chroma dx/dy)
};

constexpr int planeDim = 256;
constexpr int mcRange = 24;  //!< integer MV / search range in pixels

} // namespace

struct KernelBench::Impl {
    explicit Impl(const KernelSpec &spec, std::uint64_t seed)
        : spec(spec), seed(seed), src(planeDim, planeDim),
          dst(planeDim, planeDim), cur(planeDim, planeDim),
          coeffs(16 * 16 * 2, 0)
    {
        // Textured, deterministic content.
        for (int y = 0; y < planeDim; ++y) {
            for (int x = 0; x < planeDim; ++x) {
                src.at(x, y) = video::hashNoise(seed, x, y);
                cur.at(x, y) = video::hashNoise(seed ^ 0x77, x, y);
                dst.at(x, y) = video::hashNoise(seed ^ 0xfe, x, y);
            }
        }
        src.extendEdges();
        cur.extendEdges();
    }

    IterParams
    params(int iter) const
    {
        video::Rng rng(seed * 0x9e3779b97f4a7c15ull + iter + 1);
        IterParams p;
        int grid = spec.kernel == KernelId::Idct ? 16 : spec.size;
        int cells = (planeDim - 2 * mcRange) / grid - 1;
        p.bx = mcRange + grid * static_cast<int>(rng.below(cells));
        p.by = mcRange + grid * static_cast<int>(rng.below(cells));
        p.dx = static_cast<int>(rng.range(-mcRange, mcRange));
        p.dy = static_cast<int>(rng.range(-mcRange, mcRange));
        // Chroma fraction: not both zero (interpolation kernel).
        p.cfx = static_cast<int>(rng.below(8));
        p.cfy = static_cast<int>(rng.below(8));
        if (!p.cfx && !p.cfy)
            p.cfx = 4;
        return p;
    }

    /// Fill the coefficient macroblock for an IDCT iteration.
    void
    fillCoeffs(int iter)
    {
        video::Rng rng(seed * 0x2545f4914f6cdd1dull + iter + 7);
        auto *blk = reinterpret_cast<std::int16_t *>(coeffs.data());
        for (int i = 0; i < 256; ++i)
            blk[i] = static_cast<std::int16_t>(rng.range(-64, 64));
    }

    KernelSpec spec;
    std::uint64_t seed;
    video::Plane src;
    video::Plane dst;
    video::Plane cur;
    vmx::AlignedBuffer coeffs;
};

KernelBench::KernelBench(const KernelSpec &spec, std::uint64_t seed)
    : spec_(spec), impl_(std::make_unique<Impl>(spec, seed))
{
}

KernelBench::~KernelBench() = default;

void
KernelBench::runOnce(KernelCtx &ctx, Variant variant, int iter)
{
    Impl &im = *impl_;
    IterParams p = im.params(iter);
    const int stride = im.src.stride();

    switch (spec_.kernel) {
      case KernelId::LumaMc: {
        const std::uint8_t *sp =
            im.src.pixel(p.bx + p.dx, p.by + p.dy);
        std::uint8_t *dp = im.dst.pixel(p.bx, p.by);
        // The benchmarked position is the centre half-pel (2,2), the
        // interpolation case the paper evaluates.
        h264::lumaMc(ctx, variant, sp, stride, dp, im.dst.stride(),
                     spec_.size, spec_.size, 2, 2);
        return;
      }
      case KernelId::ChromaMc: {
        const std::uint8_t *sp =
            im.src.pixel(p.bx + p.dx, p.by + p.dy);
        std::uint8_t *dp = im.dst.pixel(p.bx, p.by);
        h264::chromaMcKernel(ctx, variant, sp, stride, dp,
                             im.dst.stride(), spec_.size, p.cfx, p.cfy);
        return;
      }
      case KernelId::Sad: {
        const std::uint8_t *cp = im.cur.pixel(p.bx, p.by);
        const std::uint8_t *rp =
            im.src.pixel(p.bx + p.dx, p.by + p.dy);
        h264::sadKernel(ctx, variant, cp, im.cur.stride(), rp, stride,
                        spec_.size);
        return;
      }
      case KernelId::Idct: {
        im.fillCoeffs(iter);
        auto *blk = reinterpret_cast<std::int16_t *>(im.coeffs.data());
        if (spec_.size == 8) {
            // One macroblock = four 8x8 transforms.
            for (int i = 0; i < 4; ++i) {
                std::uint8_t *dp = im.dst.pixel(
                    p.bx + 8 * (i & 1), p.by + 8 * (i >> 1));
                h264::idct8x8Add(ctx, variant, dp, im.dst.stride(),
                                 blk + 64 * i);
            }
        } else {
            // One macroblock = sixteen 4x4 transforms.
            for (int i = 0; i < 16; ++i) {
                std::uint8_t *dp = im.dst.pixel(
                    p.bx + 4 * (i & 3), p.by + 4 * (i >> 2));
                if (spec_.matrix) {
                    h264::idct4x4AddMatrix(ctx, variant, dp,
                                           im.dst.stride(),
                                           blk + 16 * i);
                } else {
                    h264::idct4x4Add(ctx, variant, dp, im.dst.stride(),
                                     blk + 16 * i);
                }
            }
        }
        return;
      }
    }
}

trace::InstrMix
KernelBench::countInstrs(Variant variant, int execs)
{
    trace::CountingSink sink;
    trace::Emitter em(sink);
    KernelCtx ctx(em);
    for (int i = 0; i < execs; ++i)
        runOnce(ctx, variant, i);
    return sink.mix();
}

void
KernelBench::advanceState(Variant variant, int execs)
{
    trace::NullSink sink;
    trace::Emitter em(sink);
    KernelCtx ctx(em);
    for (int i = 0; i < execs; ++i)
        runOnce(ctx, variant, i);
}

void
KernelBench::recordTrace(Variant variant, int execs,
                         trace::TraceSink &sink)
{
    Impl &im = *impl_;
    // Rebase buffer addresses onto fixed virtual bases so cache
    // behaviour (and therefore cycle counts) cannot depend on host
    // allocator placement.
    trace::AddrNormalizer norm;
    norm.addRegion(im.src.paddedBase(), im.src.paddedSize(),
                   0x10000000);
    norm.addRegion(im.dst.paddedBase(), im.dst.paddedSize(),
                   0x12000000);
    norm.addRegion(im.cur.paddedBase(), im.cur.paddedSize(),
                   0x14000000);
    norm.addRegion(im.coeffs.data(), im.coeffs.size() + 16,
                   0x16000000);
    trace::Emitter em(sink, std::move(norm));
    KernelCtx ctx(em);
    for (int i = 0; i < execs; ++i)
        runOnce(ctx, variant, i);
}

timing::SimResult
KernelBench::simulate(Variant variant, const timing::CoreConfig &cfg,
                      int execs)
{
    auto sim = timing::makeTimingModel(cfg);
    recordTrace(variant, execs, *sim);
    return sim->finalize();
}

bool
KernelBench::verifyVariants(int iters)
{
    Impl &im = *impl_;
    trace::NullSink sink;
    trace::Emitter em(sink);
    KernelCtx ctx(em);

    for (int iter = 0; iter < iters; ++iter) {
        IterParams p = im.params(iter);
        const int stride = im.src.stride();

        // Reference output region.
        video::Plane golden(planeDim, planeDim);
        auto reset_dst = [&]() {
            for (int y = 0; y < planeDim; ++y) {
                std::memcpy(im.dst.pixel(0, y), golden.pixel(0, y),
                            planeDim);
            }
        };
        for (int y = 0; y < planeDim; ++y) {
            for (int x = 0; x < planeDim; ++x)
                golden.at(x, y) = video::hashNoise(im.seed ^ 0xfe, x, y);
        }

        // Compute golden region in a copy.
        video::Plane want(planeDim, planeDim);
        for (int y = 0; y < planeDim; ++y)
            std::memcpy(want.pixel(0, y), golden.pixel(0, y), planeDim);

        int want_sad = 0;
        switch (spec_.kernel) {
          case KernelId::LumaMc:
            h264::lumaMcRef(im.src.pixel(p.bx + p.dx, p.by + p.dy),
                            stride, want.pixel(p.bx, p.by),
                            want.stride(), spec_.size, spec_.size, 2, 2);
            break;
          case KernelId::ChromaMc:
            h264::chromaMcRef(im.src.pixel(p.bx + p.dx, p.by + p.dy),
                              stride, want.pixel(p.bx, p.by),
                              want.stride(), spec_.size, spec_.size,
                              p.cfx, p.cfy);
            break;
          case KernelId::Sad:
            want_sad = h264::sadRef(im.cur.pixel(p.bx, p.by),
                                    im.cur.stride(),
                                    im.src.pixel(p.bx + p.dx,
                                                 p.by + p.dy),
                                    stride, spec_.size, spec_.size);
            break;
          case KernelId::Idct: {
            im.fillCoeffs(iter);
            auto *blk =
                reinterpret_cast<std::int16_t *>(im.coeffs.data());
            if (spec_.size == 8) {
                for (int i = 0; i < 4; ++i) {
                    std::int16_t copy[64];
                    std::memcpy(copy, blk + 64 * i, sizeof(copy));
                    h264::idct8x8AddRef(
                        want.pixel(p.bx + 8 * (i & 1),
                                   p.by + 8 * (i >> 1)),
                        want.stride(), copy);
                }
            } else {
                for (int i = 0; i < 16; ++i) {
                    std::int16_t copy[16];
                    std::memcpy(copy, blk + 16 * i, sizeof(copy));
                    h264::idct4x4AddRef(
                        want.pixel(p.bx + 4 * (i & 3),
                                   p.by + 4 * (i >> 2)),
                        want.stride(), copy);
                }
            }
            break;
          }
        }

        for (int v = 0; v < h264::numVariants; ++v) {
            auto variant = static_cast<Variant>(v);
            reset_dst();
            if (spec_.kernel == KernelId::Sad) {
                IterParams q = im.params(iter);
                int got = h264::sadKernel(
                    ctx, variant, im.cur.pixel(q.bx, q.by),
                    im.cur.stride(),
                    im.src.pixel(q.bx + q.dx, q.by + q.dy), stride,
                    spec_.size);
                if (got != want_sad)
                    return false;
                continue;
            }
            runOnce(ctx, variant, iter);
            for (int y = 0; y < planeDim; ++y) {
                if (std::memcmp(im.dst.pixel(0, y), want.pixel(0, y),
                                planeDim) != 0) {
                    return false;
                }
            }
        }
    }
    return true;
}

} // namespace uasim::core
