/**
 * @file
 * Unit tests for the Altivec emulation facade: value types, scalar
 * ops, every vector operation's lane semantics, and dependence
 * tracking.
 */

#include <gtest/gtest.h>

#include "trace/emitter.hh"
#include "trace/trace_buffer.hh"
#include "vmx/buffer.hh"
#include "vmx/constpool.hh"
#include "vmx/scalarops.hh"
#include "vmx/vecops.hh"

using namespace uasim;
using vmx::CPtr;
using vmx::Ptr;
using vmx::SInt;
using vmx::Vec;

namespace {

struct VmxFixture : ::testing::Test {
    trace::TraceBuffer sink;
    trace::Emitter em{sink};
    vmx::ScalarOps so{em};
    vmx::VecOps vo{em};
};

} // namespace

TEST_F(VmxFixture, VecLaneAccessors)
{
    Vec v = vmx::makeVecU8({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                            14, 15, 16});
    EXPECT_EQ(v.u8(0), 1);
    EXPECT_EQ(v.u8(15), 16);
    v.setS16(0, -2);
    EXPECT_EQ(v.s16(0), -2);
    v.setS32(3, -123456);
    EXPECT_EQ(v.s32(3), -123456);
}

TEST_F(VmxFixture, ScalarArithmetic)
{
    SInt a = so.li(10);
    SInt b = so.li(-3);
    EXPECT_EQ(so.add(a, b).v, 7);
    EXPECT_EQ(so.sub(a, b).v, 13);
    EXPECT_EQ(so.mul(a, b).v, -30);
    EXPECT_EQ(so.addi(a, 5).v, 15);
    EXPECT_EQ(so.subfi(8, a).v, -2);
    EXPECT_EQ(so.neg(b).v, 3);
    EXPECT_EQ(so.slli(a, 2).v, 40);
    EXPECT_EQ(so.srai(b, 1).v, -2);
    EXPECT_EQ(so.srli(so.li(16), 2).v, 4);
    EXPECT_EQ(so.sllv(a, so.li(3)).v, 80);
    EXPECT_EQ(so.srlv(so.li(256), so.li(4)).v, 16);
    EXPECT_EQ(so.andi(so.li(0xff), 0x0f).v, 0x0f);
    EXPECT_EQ(so.cmplt(b, a).v, 1);
    EXPECT_EQ(so.cmplti(a, 10).v, 0);
    EXPECT_EQ(so.cmpgti(a, 9).v, 1);
    EXPECT_EQ(so.cmpeq(a, so.li(10)).v, 1);
    EXPECT_EQ(so.isel(so.li(1), a, b).v, 10);
    EXPECT_EQ(so.isel(so.li(0), a, b).v, -3);
}

TEST_F(VmxFixture, ScalarLoadsAndStores)
{
    vmx::AlignedBuffer buf(64);
    buf[0] = 0xff;
    buf[1] = 0x01;
    Ptr p = so.lip(buf.data());
    EXPECT_EQ(so.loadU8(CPtr{p}, 0).v, 0xff);
    EXPECT_EQ(so.loadU16(CPtr{p}, 0).v, 0x01ff);
    so.storeU32(p, 8, so.li(0x11223344));
    EXPECT_EQ(so.loadS32(CPtr{p}, 8).v, 0x11223344);
    so.storeU64(p, 16, so.li(-1));
    EXPECT_EQ(so.loadS64(CPtr{p}, 16).v, -1);
    EXPECT_EQ(so.loadU8x(CPtr{p}, so.li(1)).v, 0x01);
}

TEST_F(VmxFixture, DependenceTracking)
{
    SInt a = so.li(1);
    SInt b = so.li(2);
    SInt c = so.add(a, b);
    const auto &recs = sink.records();
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[2].deps[0], a.dep.id);
    EXPECT_EQ(recs[2].deps[1], b.dep.id);
    EXPECT_EQ(c.dep.id, recs[2].id);
}

TEST_F(VmxFixture, BranchRecordsDirection)
{
    EXPECT_TRUE(so.branch(so.li(1)));
    EXPECT_FALSE(so.branch(so.li(0)));
    so.loopBranch(true);
    const auto &recs = sink.records();
    EXPECT_TRUE(recs[1].taken);
    EXPECT_FALSE(recs[3].taken);
    EXPECT_TRUE(recs[4].taken);
}

TEST_F(VmxFixture, LvxForcesAlignment)
{
    vmx::AlignedBuffer buf(64, 0);
    for (int i = 0; i < 64; ++i)
        buf[i] = std::uint8_t(i);
    CPtr p = so.lip(buf.data());
    Vec v = vo.lvx(p, 5);  // EA forced down to 0
    EXPECT_EQ(v.u8(0), 0);
    EXPECT_EQ(v.u8(15), 15);
    Vec w = vo.lvxu(p, 5);  // true unaligned
    EXPECT_EQ(w.u8(0), 5);
    EXPECT_EQ(w.u8(15), 20);
}

TEST_F(VmxFixture, StvxForcesAlignmentStvxuDoesNot)
{
    vmx::AlignedBuffer buf(64, 0);
    Vec v = vmx::makeVecU8({9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9,
                            9, 9});
    Ptr p = so.lip(buf.data());
    vo.stvx(v, p, 3);  // still writes at offset 0
    EXPECT_EQ(buf[0], 9);
    EXPECT_EQ(buf[15], 9);
    EXPECT_EQ(buf[16], 0);
    vo.stvxu(v, p, 17);
    EXPECT_EQ(buf[16], 0);
    EXPECT_EQ(buf[17], 9);
    EXPECT_EQ(buf[32], 9);
}

TEST_F(VmxFixture, StvewxStoresSelectedWord)
{
    vmx::AlignedBuffer buf(32, 0);
    Vec v;
    v.setU32(0, 0x11111111);
    v.setU32(1, 0x22222222);
    v.setU32(2, 0x33333333);
    v.setU32(3, 0x44444444);
    Ptr p = so.lip(buf.data());
    vo.stvewx(v, p, 8);  // word element 2
    EXPECT_EQ(so.loadU32(CPtr{p}, 8).v, 0x33333333);
    EXPECT_EQ(so.loadU32(CPtr{p}, 0).v, 0);
}

TEST_F(VmxFixture, LvslLvsrMasks)
{
    vmx::AlignedBuffer buf(32, 3);
    CPtr p = so.lip(buf.data());
    Vec sl = vo.lvsl(p, 0);
    Vec sr = vo.lvsr(p, 0);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(sl.u8(i), 3 + i);
        EXPECT_EQ(sr.u8(i), 16 - 3 + i);
    }
}

TEST_F(VmxFixture, VpermSelectsBytes)
{
    Vec a, b, m;
    for (int i = 0; i < 16; ++i) {
        a.b[i] = std::uint8_t(i);
        b.b[i] = std::uint8_t(100 + i);
        m.b[i] = std::uint8_t(31 - i);  // reverse of concat tail
    }
    Vec r = vo.vperm(a, b, m);
    EXPECT_EQ(r.u8(0), 115);  // concat[31] = b[15]
    EXPECT_EQ(r.u8(15), 100); // concat[16] = b[0]
}

TEST_F(VmxFixture, SldShiftsConcat)
{
    Vec a, b;
    for (int i = 0; i < 16; ++i) {
        a.b[i] = std::uint8_t(i);
        b.b[i] = std::uint8_t(16 + i);
    }
    Vec r = vo.sld(a, b, 5);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(r.u8(i), 5 + i);
}

TEST_F(VmxFixture, MergeAndUnpack)
{
    Vec a = vmx::makeVecU8({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                            13, 14, 15});
    Vec z = vo.zero();
    Vec h = vo.mergeh8(a, z);
    Vec l = vo.mergel8(a, z);
    // Memory-order zero extension: u16 lane i == a byte i.
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(h.u16(i), i);
        EXPECT_EQ(l.u16(i), 8 + i);
    }
    Vec s = vmx::makeVecU8({0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0x80, 0, 0,
                            0, 0, 0, 0, 0});
    Vec uh = vo.unpackh8(s);
    EXPECT_EQ(uh.s16(0), -1);
    EXPECT_EQ(uh.s16(1), 127);
    Vec ul = vo.unpackl8(s);
    EXPECT_EQ(ul.s16(0), -128);
}

TEST_F(VmxFixture, Merge16And32)
{
    Vec a = vmx::makeVecS16({0, 1, 2, 3, 4, 5, 6, 7});
    Vec b = vmx::makeVecS16({10, 11, 12, 13, 14, 15, 16, 17});
    Vec h = vo.mergeh16(a, b);
    EXPECT_EQ(h.s16(0), 0);
    EXPECT_EQ(h.s16(1), 10);
    EXPECT_EQ(h.s16(6), 3);
    EXPECT_EQ(h.s16(7), 13);
    Vec l = vo.mergel16(a, b);
    EXPECT_EQ(l.s16(0), 4);
    EXPECT_EQ(l.s16(1), 14);
    Vec a32 = vmx::makeVecS32({1, 2, 3, 4});
    Vec b32 = vmx::makeVecS32({5, 6, 7, 8});
    Vec h32 = vo.mergeh32(a32, b32);
    EXPECT_EQ(h32.s32(0), 1);
    EXPECT_EQ(h32.s32(1), 5);
    EXPECT_EQ(h32.s32(2), 2);
    EXPECT_EQ(h32.s32(3), 6);
}

TEST_F(VmxFixture, PackSaturation)
{
    Vec a = vmx::makeVecS16({-5, 0, 100, 255, 256, 300, 32767, -32768});
    Vec r = vo.packsu16(a, a);
    EXPECT_EQ(r.u8(0), 0);    // -5 clips to 0
    EXPECT_EQ(r.u8(2), 100);
    EXPECT_EQ(r.u8(3), 255);
    EXPECT_EQ(r.u8(4), 255);  // 256 clips to 255
    EXPECT_EQ(r.u8(6), 255);
    EXPECT_EQ(r.u8(7), 0);
    Vec m = vo.packum16(a, a);
    EXPECT_EQ(m.u8(4), 0);    // 256 mod 256
    Vec s32 = vmx::makeVecS32({70000, -70000, 5, -5});
    Vec p32 = vo.packs32(s32, s32);
    EXPECT_EQ(p32.s16(0), 32767);
    EXPECT_EQ(p32.s16(1), -32768);
    EXPECT_EQ(p32.s16(2), 5);
}

TEST_F(VmxFixture, SaturatingLaneArithmetic)
{
    Vec a = vmx::makeVecU8({250, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                            0, 0, 0});
    Vec b = vmx::makeVecU8({10, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                            0, 0});
    EXPECT_EQ(vo.addsu8(a, b).u8(0), 255);
    EXPECT_EQ(vo.addu8(a, b).u8(0), 4);  // modulo
    EXPECT_EQ(vo.subsu8(b, a).u8(0), 0);
    EXPECT_EQ(vo.subsu8(a, b).u8(0), 240);
    EXPECT_EQ(vo.avgu8(a, b).u8(0), 130);
    EXPECT_EQ(vo.minu8(a, b).u8(0), 10);
    EXPECT_EQ(vo.maxu8(a, b).u8(0), 250);

    Vec sa = vmx::makeVecS16({32000, -32000, 0, 0, 0, 0, 0, 0});
    Vec sb = vmx::makeVecS16({1000, -1000, 0, 0, 0, 0, 0, 0});
    EXPECT_EQ(vo.adds16(sa, sb).s16(0), 32767);
    EXPECT_EQ(vo.adds16(sa, sb).s16(1), -32768);
    EXPECT_EQ(vo.subs16(sa, sb).s16(0), 31000);
}

TEST_F(VmxFixture, ShiftsAndLogic)
{
    Vec a = vmx::makeVecS16({-16, 32, 4, 1, 0, 0, 0, 0});
    Vec sh = vo.splatis16(2);
    EXPECT_EQ(vo.sra16(a, sh).s16(0), -4);
    EXPECT_EQ(vo.sr16(a, sh).u16(1), 8);
    EXPECT_EQ(vo.sl16(a, sh).s16(2), 16);
    Vec x = vmx::makeVecU8({0xf0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                            0, 0, 0});
    Vec y = vmx::makeVecU8({0x0f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                            0, 0, 0});
    EXPECT_EQ(vo.and_(x, y).u8(0), 0);
    EXPECT_EQ(vo.or_(x, y).u8(0), 0xff);
    EXPECT_EQ(vo.xor_(x, y).u8(0), 0xff);
    EXPECT_EQ(vo.andc(x, y).u8(0), 0xf0);
    EXPECT_EQ(vo.nor(x, y).u8(0), 0);
    Vec sel = vo.sel(x, y, vo.splatis8(-1));
    EXPECT_EQ(sel.u8(0), 0x0f);
}

TEST_F(VmxFixture, ComplexOps)
{
    Vec a = vmx::makeVecS16({3, -3, 5, 0, 0, 0, 0, 0});
    Vec b = vmx::makeVecS16({2, 2, 2, 2, 2, 2, 2, 2});
    Vec c = vmx::makeVecS16({1, 1, 1, 1, 1, 1, 1, 1});
    Vec ml = vo.mladd16(a, b, c);
    EXPECT_EQ(ml.s16(0), 7);
    EXPECT_EQ(ml.s16(1), -5);
    EXPECT_EQ(ml.s16(2), 11);

    // mradds: ((a*b + 0x4000) >> 15) + c, saturating.
    Vec big = vmx::makeVecS16({16384, 0, 0, 0, 0, 0, 0, 0});
    Vec two = vmx::makeVecS16({2, 0, 0, 0, 0, 0, 0, 0});
    EXPECT_EQ(vo.mradds16(big, two, c).s16(0), 2);

    Vec u = vmx::makeVecU8({1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                            0, 0});
    Vec acc;
    acc.setS32(0, 10);
    EXPECT_EQ(vo.sum4su8(u, acc).s32(0), 20);
    Vec ones = vo.splatis8(1);
    Vec ms = vo.msumu8(u, ones, vo.zero());
    EXPECT_EQ(ms.u32(0), 10u);

    Vec words = vmx::makeVecS32({1, 2, 3, 4});
    Vec sums = vo.sums32(words, vo.zero());
    EXPECT_EQ(sums.s32(3), 10);

    Vec e = vo.muleu8(u, vo.splatis8(3));
    EXPECT_EQ(e.u16(0), 3u);   // even lane 0 = 1*3
    EXPECT_EQ(e.u16(1), 9u);   // even lane 2 = 3*3
    Vec o = vo.mulou8(u, vo.splatis8(3));
    EXPECT_EQ(o.u16(0), 6u);   // odd lane 1 = 2*3
}

TEST_F(VmxFixture, Splats)
{
    Vec a = vmx::makeVecS16({7, 8, 9, 10, 11, 12, 13, 14});
    Vec s = vo.splat16(a, 2);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(s.s16(i), 9);
    Vec i8 = vo.splatis8(-7);
    EXPECT_EQ(i8.s8(5), -7);
    Vec i32 = vo.splatis32(13);
    EXPECT_EQ(i32.s32(3), 13);
}

TEST_F(VmxFixture, InstrClassAccounting)
{
    vmx::AlignedBuffer buf(64, 4);
    CPtr p = so.lip(buf.data());
    sink.clear();
    vo.lvx(p, 0);
    vo.lvxu(p, 0);
    vo.lvsl(p, 0);
    vo.vperm(Vec{}, Vec{}, Vec{});
    vo.add16(Vec{}, Vec{});
    vo.mladd16(Vec{}, Vec{}, Vec{});
    const auto &recs = sink.records();
    ASSERT_EQ(recs.size(), 6u);
    EXPECT_EQ(recs[0].cls, trace::InstrClass::VecLoad);
    EXPECT_EQ(recs[1].cls, trace::InstrClass::VecLoadU);
    // lvsl is accounted in the permute class (paper Table III).
    EXPECT_EQ(recs[2].cls, trace::InstrClass::VecPerm);
    EXPECT_EQ(recs[3].cls, trace::InstrClass::VecPerm);
    EXPECT_EQ(recs[4].cls, trace::InstrClass::VecSimple);
    EXPECT_EQ(recs[5].cls, trace::InstrClass::VecComplex);
}

TEST_F(VmxFixture, ConstPoolInternsAndLoadsAligned)
{
    Vec c1 = vmx::makeVecS16({20, 20, 20, 20, 20, 20, 20, 20});
    sink.clear();
    Vec a = vmx::loadConst(vo, c1);
    Vec b = vmx::loadConst(vo, c1);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(a.s16(i), 20);
        EXPECT_EQ(b.s16(i), 20);
    }
    ASSERT_EQ(sink.records().size(), 2u);
    EXPECT_EQ(sink.records()[0].cls, trace::InstrClass::VecLoad);
    // Interned: both loads hit the same pooled address.
    EXPECT_EQ(sink.records()[0].addr, sink.records()[1].addr);
    EXPECT_EQ(sink.records()[0].addr & 15, 0u);
}

TEST(AlignedBuffer, HonorsRequestedOffset)
{
    for (unsigned off = 0; off < 16; ++off) {
        vmx::AlignedBuffer buf(128, off);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) & 15, off);
    }
}
