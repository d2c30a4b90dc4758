#include "h264/deblock.hh"

#include <algorithm>
#include <cmath>

#include "h264/tables.hh"

namespace uasim::h264 {

using vmx::CPtr;
using vmx::Ptr;
using vmx::SInt;

const DeblockTables &
DeblockTables::get()
{
    static DeblockTables t = [] {
        DeblockTables dt{};
        for (int qp = 0; qp < 52; ++qp) {
            // Exponential growth with QP, zero below the standard's
            // activation point (QP 16), saturating at 255.
            double a = 0.8 * (std::pow(2.0, qp / 6.0) - 1.0);
            double b = 0.5 * qp - 7.0;
            dt.alpha[qp] = static_cast<std::uint8_t>(
                qp < 16 ? 0 : std::min(255.0, a));
            dt.beta[qp] = static_cast<std::uint8_t>(
                qp < 16 ? 0 : std::clamp(b, 0.0, 18.0));
            for (int s = 0; s < 3; ++s) {
                double tc = (s + 1) * 0.33 * std::pow(2.0, qp / 9.0) - 1;
                dt.tc0[qp][s] = static_cast<std::uint8_t>(
                    qp < 16 ? 0 : std::clamp(tc, 0.0, 25.0));
            }
        }
        return dt;
    }();
    return t;
}

namespace {

inline int
clip3(int lo, int hi, int x)
{
    return x < lo ? lo : (x > hi ? hi : x);
}

inline int
absInt(int x)
{
    return x < 0 ? -x : x;
}

} // namespace

void
deblockEdgeRef(std::uint8_t *pix, int xstride, int ystride, int bs,
               int qp)
{
    const DeblockTables &t = DeblockTables::get();
    const int alpha = t.alpha[qp];
    const int beta = t.beta[qp];
    const int tc0 = t.tc0[qp][bs - 1];
    if (!alpha || !beta)
        return;

    for (int i = 0; i < 4; ++i) {
        std::uint8_t *p = pix + i * ystride;
        int p2 = p[-3 * xstride];
        int p1 = p[-2 * xstride];
        int p0 = p[-1 * xstride];
        int q0 = p[0];
        int q1 = p[1 * xstride];
        int q2 = p[2 * xstride];

        if (absInt(p0 - q0) >= alpha || absInt(p1 - p0) >= beta ||
            absInt(q1 - q0) >= beta) {
            continue;
        }

        int tc = tc0;
        if (absInt(p2 - p0) < beta)
            ++tc;
        if (absInt(q2 - q0) < beta)
            ++tc;
        if (!tc)
            continue;

        int delta =
            clip3(-tc, tc, (((q0 - p0) * 4) + (p1 - q1) + 4) >> 3);
        p[-1 * xstride] = clipU8(p0 + delta);
        p[0] = clipU8(q0 - delta);

        if (absInt(p2 - p0) < beta && tc0) {
            int dp = clip3(-tc0, tc0,
                           (p2 + ((p0 + q0 + 1) >> 1) - 2 * p1) >> 1);
            p[-2 * xstride] = static_cast<std::uint8_t>(p1 + dp);
        }
        if (absInt(q2 - q0) < beta && tc0) {
            int dq = clip3(-tc0, tc0,
                           (q2 + ((p0 + q0 + 1) >> 1) - 2 * q1) >> 1);
            p[1 * xstride] = static_cast<std::uint8_t>(q1 + dq);
        }
    }
}

void
deblockEdgeScalar(KernelCtx &ctx, std::uint8_t *pix, int xstride,
                  int ystride, int bs, int qp)
{
    auto &s = ctx.so;
    const DeblockTables &t = DeblockTables::get();
    const int alpha = t.alpha[qp];
    const int beta = t.beta[qp];
    const int tc0v = t.tc0[qp][bs - 1];

    // Threshold loads (table lookups in compiled code).
    SInt valpha = s.li(alpha);
    SInt vbeta = s.li(beta);
    SInt vtc0 = s.li(tc0v);
    SInt zero = s.li(0);
    if (!s.branch(s.and_(s.cmpgti(valpha, 0), s.cmpgti(vbeta, 0))))
        return;

    vmx::Ptr pp = s.lip(pix);
    for (int i = 0; i < 4; ++i) {
        SInt p2 = s.loadU8(vmx::CPtr{pp}, -3 * xstride);
        SInt p1 = s.loadU8(vmx::CPtr{pp}, -2 * xstride);
        SInt p0 = s.loadU8(vmx::CPtr{pp}, -1 * xstride);
        SInt q0 = s.loadU8(vmx::CPtr{pp}, 0);
        SInt q1 = s.loadU8(vmx::CPtr{pp}, 1 * xstride);
        SInt q2 = s.loadU8(vmx::CPtr{pp}, 2 * xstride);

        // |p0-q0| < alpha etc.: sub, abs (branchless isel here), cmp.
        auto abs_diff = [&](SInt a, SInt b) {
            SInt d = s.sub(a, b);
            SInt n = s.neg(d);
            return s.isel(s.cmplti(d, 0), n, d);
        };
        SInt c0 = s.cmplt(abs_diff(p0, q0), valpha);
        SInt c1 = s.cmplt(abs_diff(p1, p0), vbeta);
        SInt c2 = s.cmplt(abs_diff(q1, q0), vbeta);
        SInt go = s.and_(c0, s.and_(c1, c2));
        if (!s.branch(go)) {
            pp = s.paddi(pp, ystride);
            s.loopBranch(i + 1 < 4);
            continue;
        }

        SInt ap = abs_diff(p2, p0);
        SInt aq = abs_diff(q2, q0);
        SInt tc = vtc0;
        SInt bump_p = s.cmplt(ap, vbeta);
        SInt bump_q = s.cmplt(aq, vbeta);
        tc = s.add(tc, bump_p);
        tc = s.add(tc, bump_q);
        if (!s.branch(s.cmpgti(tc, 0))) {
            pp = s.paddi(pp, ystride);
            s.loopBranch(i + 1 < 4);
            continue;
        }

        SInt diff = s.sub(q0, p0);
        SInt delta = s.srai(
            s.addi(s.add(s.slli(diff, 2), s.sub(p1, q1)), 4), 3);
        SInt ntc = s.neg(tc);
        delta = s.isel(s.cmplt(delta, ntc), ntc, delta);
        delta = s.isel(s.cmplt(tc, delta), tc, delta);

        // Clipped writes of p0/q0.
        CPtr clip = s.lip(clipTable() + clipTableOffset);
        s.storeU8(pp, -1 * xstride,
                  s.loadU8x(clip, s.add(p0, delta)));
        s.storeU8(pp, 0, s.loadU8x(clip, s.sub(q0, delta)));

        if (s.branch(s.and_(bump_p, s.cmpgti(vtc0, 0)))) {
            SInt avg = s.srai(s.addi(s.add(p0, q0), 1), 1);
            SInt dp = s.srai(
                s.sub(s.add(p2, avg), s.slli(p1, 1)), 1);
            SInt nt = s.neg(vtc0);
            dp = s.isel(s.cmplt(dp, nt), nt, dp);
            dp = s.isel(s.cmplt(vtc0, dp), vtc0, dp);
            s.storeU8(pp, -2 * xstride, s.add(p1, dp));
        }
        if (s.branch(s.and_(bump_q, s.cmpgti(vtc0, 0)))) {
            SInt avg = s.srai(s.addi(s.add(p0, q0), 1), 1);
            SInt dq = s.srai(
                s.sub(s.add(q2, avg), s.slli(q1, 1)), 1);
            SInt nt = s.neg(vtc0);
            dq = s.isel(s.cmplt(dq, nt), nt, dq);
            dq = s.isel(s.cmplt(vtc0, dq), vtc0, dq);
            s.storeU8(pp, 1 * xstride, s.add(q1, dq));
        }
        pp = s.paddi(pp, ystride);
        s.loopBranch(i + 1 < 4);
    }
    (void)zero;
}

namespace {

template <typename EdgeFn>
int
deblockMacroblockImpl(std::uint8_t *mb, int stride, int qp, bool intra,
                      EdgeFn &&edge)
{
    int bs = intra ? 3 : 1;
    int count = 0;
    // Vertical edges (filtering across columns x = 0, 4, 8, 12).
    for (int x = 0; x < 16; x += 4) {
        for (int y = 0; y < 16; y += 4) {
            edge(mb + y * stride + x, 1, stride, bs, qp);
            ++count;
        }
    }
    // Horizontal edges.
    for (int y = 0; y < 16; y += 4) {
        for (int x = 0; x < 16; x += 4) {
            edge(mb + y * stride + x, stride, 1, bs, qp);
            ++count;
        }
    }
    return count;
}

} // namespace

int
deblockMacroblockRef(std::uint8_t *mb, int stride, int qp, bool intra)
{
    return deblockMacroblockImpl(
        mb, stride, qp, intra,
        [](std::uint8_t *p, int xs, int ys, int bs, int q) {
            deblockEdgeRef(p, xs, ys, bs, q);
        });
}

int
deblockMacroblockScalar(KernelCtx &ctx, std::uint8_t *mb, int stride,
                        int qp, bool intra)
{
    return deblockMacroblockImpl(
        mb, stride, qp, intra,
        [&](std::uint8_t *p, int xs, int ys, int bs, int q) {
            deblockEdgeScalar(ctx, p, xs, ys, bs, q);
        });
}

} // namespace uasim::h264
