/**
 * @file
 * Unit tests for the trace layer: records, mixes, emitter, sinks, and
 * binary trace I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "trace/addrmap.hh"
#include "trace/emitter.hh"
#include "trace/instr.hh"
#include "trace/mix.hh"
#include "trace/sink.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_io.hh"

namespace ut = uasim::trace;

TEST(InstrClass, Predicates)
{
    using IC = ut::InstrClass;
    EXPECT_TRUE(ut::isMemClass(IC::Load));
    EXPECT_TRUE(ut::isMemClass(IC::VecStoreU));
    EXPECT_FALSE(ut::isMemClass(IC::IntAlu));
    EXPECT_FALSE(ut::isMemClass(IC::Branch));

    EXPECT_TRUE(ut::isLoadClass(IC::VecLoadU));
    EXPECT_FALSE(ut::isLoadClass(IC::VecStore));
    EXPECT_TRUE(ut::isStoreClass(IC::VecStoreU));
    EXPECT_FALSE(ut::isStoreClass(IC::Load));

    EXPECT_TRUE(ut::isVectorClass(IC::VecPerm));
    EXPECT_TRUE(ut::isVectorClass(IC::VecLoad));
    EXPECT_FALSE(ut::isVectorClass(IC::FpAlu));

    EXPECT_TRUE(ut::isUnalignedVecMem(IC::VecLoadU));
    EXPECT_FALSE(ut::isUnalignedVecMem(IC::VecLoad));
}

TEST(InstrClass, NamesAreUnique)
{
    for (int i = 0; i < ut::numInstrClasses; ++i) {
        for (int j = i + 1; j < ut::numInstrClasses; ++j) {
            EXPECT_NE(ut::instrClassName(ut::InstrClass(i)),
                      ut::instrClassName(ut::InstrClass(j)));
        }
    }
}

TEST(InstrMix, CountsAndGroups)
{
    ut::InstrMix mix;
    mix.add(ut::InstrClass::IntAlu, 5);
    mix.add(ut::InstrClass::IntMul, 2);
    mix.add(ut::InstrClass::VecLoad, 3);
    mix.add(ut::InstrClass::VecLoadU, 4);
    mix.add(ut::InstrClass::VecStore, 1);
    mix.add(ut::InstrClass::VecStoreU, 1);
    mix.add(ut::InstrClass::VecPerm, 7);

    EXPECT_EQ(mix.total(), 23u);
    EXPECT_EQ(mix.intOps(), 7u);
    EXPECT_EQ(mix.vecLoads(), 7u);
    EXPECT_EQ(mix.vecStores(), 2u);
    EXPECT_EQ(mix.vecPerm(), 7u);
    EXPECT_EQ(mix.vecTotal(), 16u);
}

TEST(InstrMix, Accumulate)
{
    ut::InstrMix a, b;
    a.add(ut::InstrClass::Load, 10);
    b.add(ut::InstrClass::Load, 5);
    b.add(ut::InstrClass::Store, 2);
    a += b;
    EXPECT_EQ(a.count(ut::InstrClass::Load), 15u);
    EXPECT_EQ(a.count(ut::InstrClass::Store), 2u);
}

TEST(Emitter, AssignsSequentialIds)
{
    ut::TraceBuffer sink;
    ut::Emitter em(sink);
    auto d1 = em.emit(ut::InstrClass::IntAlu,
                      std::source_location::current());
    auto d2 = em.emit(ut::InstrClass::IntAlu,
                      std::source_location::current());
    EXPECT_EQ(d1.id, 1u);
    EXPECT_EQ(d2.id, 2u);
    EXPECT_EQ(em.count(), 2u);
    ASSERT_EQ(sink.records().size(), 2u);
    EXPECT_EQ(sink.records()[0].id, 1u);
}

TEST(Emitter, StablePcPerCallSite)
{
    ut::TraceBuffer sink;
    ut::Emitter em(sink);
    for (int i = 0; i < 4; ++i) {
        em.emit(ut::InstrClass::IntAlu,
                std::source_location::current());  // one site
    }
    ASSERT_EQ(sink.records().size(), 4u);
    std::uint64_t pc = sink.records()[0].pc;
    EXPECT_GE(pc, ut::Emitter::codeBase);
    for (const auto &r : sink.records())
        EXPECT_EQ(r.pc, pc);
    EXPECT_EQ(em.staticSites(), 1u);
}

TEST(Emitter, DistinctSitesGetDistinctPcs)
{
    ut::TraceBuffer sink;
    ut::Emitter em(sink);
    em.emit(ut::InstrClass::IntAlu, std::source_location::current());
    em.emit(ut::InstrClass::IntAlu, std::source_location::current());
    ASSERT_EQ(sink.records().size(), 2u);
    EXPECT_NE(sink.records()[0].pc, sink.records()[1].pc);
    EXPECT_EQ(em.staticSites(), 2u);
}

TEST(Emitter, RecordsDepsAndAddresses)
{
    ut::TraceBuffer sink;
    ut::Emitter em(sink);
    auto p = em.emit(ut::InstrClass::IntAlu,
                     std::source_location::current());
    em.emitMem(ut::InstrClass::Load, 0x1234, 4,
               std::source_location::current(), p);
    em.emitBranch(true, std::source_location::current(), p);
    const auto &load = sink.records()[1];
    EXPECT_EQ(load.addr, 0x1234u);
    EXPECT_EQ(load.size, 4);
    EXPECT_EQ(load.deps[0], p.id);
    const auto &br = sink.records()[2];
    EXPECT_TRUE(br.taken);
    EXPECT_EQ(br.cls, ut::InstrClass::Branch);
}

TEST(Sinks, CountingSink)
{
    ut::CountingSink sink;
    ut::Emitter em(sink);
    em.emit(ut::InstrClass::VecSimple, std::source_location::current());
    em.emitMem(ut::InstrClass::VecLoadU, 0x10, 16,
               std::source_location::current());
    EXPECT_EQ(sink.mix().total(), 2u);
    EXPECT_EQ(sink.mix().vecLoads(), 1u);
}

TEST(TraceIo, RoundTrip)
{
    std::string path = ::testing::TempDir() + "/uasim_trace_test.bin";
    {
        ut::FileSink fs(path);
        ut::Emitter em(fs);
        auto d = em.emit(ut::InstrClass::IntAlu,
                         std::source_location::current());
        em.emitMem(ut::InstrClass::VecLoadU, 0xdeadbeef, 16,
                   std::source_location::current(), d);
        em.emitBranch(true, std::source_location::current());
        fs.close();
        EXPECT_EQ(fs.written(), 3u);
    }
    ut::TraceReader reader(path);
    EXPECT_EQ(reader.count(), 3u);
    ut::TraceCursor cur = reader.cursor();
    ut::InstrRecord rec;
    ASSERT_TRUE(cur.next(rec));
    EXPECT_EQ(rec.cls, ut::InstrClass::IntAlu);
    ASSERT_TRUE(cur.next(rec));
    EXPECT_EQ(rec.cls, ut::InstrClass::VecLoadU);
    EXPECT_EQ(rec.addr, 0xdeadbeefu);
    EXPECT_EQ(rec.deps[0], 1u);
    ASSERT_TRUE(cur.next(rec));
    EXPECT_TRUE(rec.taken);
    EXPECT_FALSE(cur.next(rec));
    std::remove(path.c_str());
}

TEST(TraceIo, CursorBlocksCoverTheTrace)
{
    std::string path = ::testing::TempDir() + "/uasim_trace_drain.bin";
    {
        ut::FileSink fs(path);
        ut::Emitter em(fs);
        for (int i = 0; i < 100; ++i)
            em.emit(ut::InstrClass::VecPerm,
                    std::source_location::current());
    }
    ut::TraceReader reader(path);
    ut::TraceCursor cur = reader.cursor();
    ut::CountingSink sink;
    ut::InstrRecord block[32];
    while (const std::size_t n = cur.nextBlock(block, std::size(block)))
        sink.appendBlock(block, n);
    EXPECT_EQ(cur.read(), 100u);
    EXPECT_EQ(sink.mix().vecPerm(), 100u);
    std::remove(path.c_str());
}

TEST(TraceIo, BadMagicThrows)
{
    std::string path = ::testing::TempDir() + "/uasim_bad_magic.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fwrite("NOTATRACE1234567", 1, 16, f);
    std::fclose(f);
    EXPECT_THROW(ut::TraceReader reader(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows)
{
    EXPECT_THROW(ut::TraceReader reader("/nonexistent/trace.bin"),
                 std::runtime_error);
}

// ---- Address normalization (deterministic simulation input) ----

namespace {

/// Translate one memory load at @p addr through @p norm into @p buf.
std::uint64_t
pushAddr(ut::AddrNormalizer &norm, ut::TraceBuffer &buf,
         std::uint64_t addr, std::uint8_t size = 16)
{
    ut::InstrRecord rec;
    rec.cls = size == 16 ? ut::InstrClass::VecLoad
                         : ut::InstrClass::Load;
    rec.addr = addr;
    rec.size = size;
    norm.append(rec);
    return buf.records().back().addr;
}

} // namespace

TEST(AddrNormalizer, RegisteredRegionsRebasePreservingLayout)
{
    ut::TraceBuffer buf;
    ut::AddrNormalizer norm(buf);
    norm.addRegion(reinterpret_cast<const void *>(0x7fff12345000ull),
                   0x1000, 0x10000000);
    EXPECT_EQ(pushAddr(norm, buf, 0x7fff12345000ull), 0x10000000u);
    EXPECT_EQ(pushAddr(norm, buf, 0x7fff12345123ull), 0x10000123u);
}

TEST(AddrNormalizer, NonMemRecordsPassThroughUntouched)
{
    ut::TraceBuffer buf;
    ut::AddrNormalizer norm(buf);
    ut::InstrRecord rec;
    rec.cls = ut::InstrClass::IntAlu;
    rec.addr = 0xdeadbeef;  // meaningless for non-mem; must not change
    norm.append(rec);
    EXPECT_EQ(buf.records().back().addr, 0xdeadbeefull);
}

TEST(AddrNormalizer, FallbackIsFirstAppearanceDeterministic)
{
    // Two "hosts" place the same objects at different addresses (and
    // even different offsets inside their cache lines and pages); the
    // normalized stream must be identical because fallback 16B
    // granules are assigned in first-appearance order with only the
    // host-independent in-granule offset preserved.
    const std::uint64_t layout_a[] = {0x55501000, 0x7ffe2040,
                                      0x55501008, 0x601badc0};
    const std::uint64_t layout_b[] = {0xa5af3030, 0x10706080,
                                      0xa5af3038, 0x94a11100};

    ut::TraceBuffer buf_a, buf_b;
    ut::AddrNormalizer norm_a(buf_a), norm_b(buf_b);
    const std::uint8_t sizes[] = {16, 16, 8, 16};
    for (std::size_t i = 0; i < std::size(layout_a); ++i) {
        std::uint64_t got_a =
            pushAddr(norm_a, buf_a, layout_a[i], sizes[i]);
        std::uint64_t got_b =
            pushAddr(norm_b, buf_b, layout_b[i], sizes[i]);
        EXPECT_EQ(got_a, got_b) << "access " << i;
    }
    // Repeat accesses reuse the established mapping.
    EXPECT_EQ(pushAddr(norm_a, buf_a, layout_a[0]),
              pushAddr(norm_b, buf_b, layout_b[0]));
    // Distinct granules never collide.
    EXPECT_NE(pushAddr(norm_a, buf_a, layout_a[0]) & ~0xfull,
              pushAddr(norm_a, buf_a, layout_a[1]) & ~0xfull);
}

TEST(AddrNormalizer, FallbackPreservesInGranuleOffsetVerbatim)
{
    // Cross-host identity of the fallback stream holds only because
    // every unregistered traced object keeps a host-independent
    // (addr & 15): the in-granule offset passes through verbatim and
    // everything above it is replaced by first-appearance order.
    // Side tables reached by traced loads must therefore be
    // alignas(16) (see the clip table in h264/tables.cc).
    ut::TraceBuffer buf;
    ut::AddrNormalizer norm(buf);
    for (std::uint64_t off = 0; off < 16; ++off) {
        EXPECT_EQ(pushAddr(norm, buf, 0x55aa1230 + off, 1) & 0xf, off);
    }
    // All 16 offsets stayed inside one host granule -> one virtual
    // granule; the next host granule gets the next virtual one.
    EXPECT_EQ(pushAddr(norm, buf, 0x55aa1230, 1) & ~0xfull,
              pushAddr(norm, buf, 0x55aa123f, 1) & ~0xfull);
    EXPECT_EQ((pushAddr(norm, buf, 0x55aa1240) & ~0xfull) -
                  (pushAddr(norm, buf, 0x55aa1230) & ~0xfull),
              16u);
}
