/**
 * @file
 * Unit tests for the trace layer: records, mixes, emitter, sinks, and
 * binary trace I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <source_location>
#include <utility>
#include <vector>

#include "core/sweep.hh"
#include "trace/addrmap.hh"
#include "trace/emitter.hh"
#include "trace/instr.hh"
#include "trace/mix.hh"
#include "trace/sink.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_io.hh"
#include "trace/trace_store.hh"

namespace ut = uasim::trace;

namespace {

/// One place in the source, but a distinct source_location object per
/// instantiation: each carries its own function name.
template <int N>
std::source_location
siteIn()
{
    return std::source_location::current();
}

} // namespace

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

TEST(Emitter, LocationsOfOneFileLineColumnShareOnePc)
{
    // The Emitter memoises PCs per source_location object; objects that
    // name the same file, line and column still get one PC, numbered
    // in first-seen order.
    ASSERT_STRNE(siteIn<1>().function_name(), siteIn<2>().function_name());
    ut::TraceBuffer sink;
    ut::Emitter em(sink);
    for (int i = 0; i < 2; ++i) {
        em.emit(ut::InstrClass::IntAlu, siteIn<1>());
        em.emit(ut::InstrClass::IntAlu, siteIn<2>());
    }
    em.emit(ut::InstrClass::IntAlu, std::source_location::current());
    const auto &recs = sink.records();
    ASSERT_EQ(recs.size(), 5u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(recs[i].pc, ut::Emitter::codeBase) << i;
    EXPECT_EQ(recs[4].pc, ut::Emitter::codeBase + 4);
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
    const std::string dir = ::testing::TempDir() + "/uasim_trace_test";
    std::filesystem::remove_all(dir);
    ut::TraceStore store(dir);
    {
        auto recorder = store.startRecord("k");
        ASSERT_NE(recorder, nullptr);
        ut::Emitter em(*recorder);
        auto d = em.emit(ut::InstrClass::IntAlu,
                         std::source_location::current());
        em.emitMem(ut::InstrClass::VecLoadU, 0xdeadbeef, 16,
                   std::source_location::current(), d);
        em.emitBranch(true, std::source_location::current());
        recorder->commit();
        EXPECT_EQ(recorder->mix().total(), 3u);
    }
    ut::TraceReader reader(store.entryPath("k"));
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
    std::filesystem::remove_all(dir);
}

TEST(TraceIo, CursorBlocksCoverTheTrace)
{
    const std::string dir = ::testing::TempDir() + "/uasim_trace_drain";
    std::filesystem::remove_all(dir);
    ut::TraceStore store(dir);
    {
        auto recorder = store.startRecord("k");
        ASSERT_NE(recorder, nullptr);
        ut::Emitter em(*recorder);
        for (int i = 0; i < 100; ++i)
            em.emit(ut::InstrClass::VecPerm,
                    std::source_location::current());
        recorder->commit();
    }
    ut::TraceReader reader(store.entryPath("k"));
    ut::TraceCursor cur = reader.cursor();
    ut::CountingSink sink;
    ut::InstrRecord block[32];
    while (const std::size_t n = cur.nextBlock(block, std::size(block)))
        sink.appendBlock(block, n);
    EXPECT_EQ(cur.read(), 100u);
    EXPECT_EQ(sink.mix().vecPerm(), 100u);
    std::filesystem::remove_all(dir);
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

/// Emit one memory load at @p addr through @p em, whose sink is
/// @p buf; @return the address the record carries.
std::uint64_t
pushAddr(ut::Emitter &em, ut::TraceBuffer &buf, std::uint64_t addr,
         std::uint8_t size = 16)
{
    em.emitMem(size == 16 ? ut::InstrClass::VecLoad : ut::InstrClass::Load,
               addr, size, std::source_location::current());
    return buf.records().back().addr;
}

} // namespace

TEST(AddrNormalizer, RegisteredRegionsRebasePreservingLayout)
{
    ut::TraceBuffer buf;
    ut::AddrNormalizer norm;
    norm.addRegion(reinterpret_cast<const void *>(0x7fff12345000ull),
                   0x1000, 0x10000000);
    ut::Emitter em(buf, std::move(norm));
    EXPECT_EQ(pushAddr(em, buf, 0x7fff12345000ull), 0x10000000u);
    EXPECT_EQ(pushAddr(em, buf, 0x7fff12345123ull), 0x10000123u);
}

TEST(AddrNormalizer, NonMemRecordsPassThroughUntouched)
{
    ut::TraceBuffer buf;
    ut::Emitter em(buf, ut::AddrNormalizer{});
    // meaningless for non-mem; must not change
    em.emitMem(ut::InstrClass::IntAlu, 0xdeadbeef, 0,
               std::source_location::current());
    EXPECT_EQ(buf.records().back().addr, 0xdeadbeefull);
    // ...and must not have taken the first fallback granule.
    EXPECT_EQ(pushAddr(em, buf, 0x55501000),
              ut::AddrNormalizer::fallbackBase);
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
    ut::Emitter em_a(buf_a, ut::AddrNormalizer{});
    ut::Emitter em_b(buf_b, ut::AddrNormalizer{});
    const std::uint8_t sizes[] = {16, 16, 8, 16};
    for (std::size_t i = 0; i < std::size(layout_a); ++i) {
        std::uint64_t got_a = pushAddr(em_a, buf_a, layout_a[i], sizes[i]);
        std::uint64_t got_b = pushAddr(em_b, buf_b, layout_b[i], sizes[i]);
        EXPECT_EQ(got_a, got_b) << "access " << i;
    }
    // Repeat accesses reuse the established mapping.
    EXPECT_EQ(pushAddr(em_a, buf_a, layout_a[0]),
              pushAddr(em_b, buf_b, layout_b[0]));
    // Distinct granules never collide.
    EXPECT_NE(pushAddr(em_a, buf_a, layout_a[0]) & ~0xfull,
              pushAddr(em_a, buf_a, layout_a[1]) & ~0xfull);
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
    ut::Emitter em(buf, ut::AddrNormalizer{});
    for (std::uint64_t off = 0; off < 16; ++off) {
        EXPECT_EQ(pushAddr(em, buf, 0x55aa1230 + off, 1) & 0xf, off);
    }
    // All 16 offsets stayed inside one host granule -> one virtual
    // granule; the next host granule gets the next virtual one.
    EXPECT_EQ(pushAddr(em, buf, 0x55aa1230, 1) & ~0xfull,
              pushAddr(em, buf, 0x55aa123f, 1) & ~0xfull);
    EXPECT_EQ((pushAddr(em, buf, 0x55aa1240) & ~0xfull) -
                  (pushAddr(em, buf, 0x55aa1230) & ~0xfull),
              16u);
}

TEST(RankTable, ManyGrowthsKeepFirstSeenOrder)
{
    // Thousands of distinct keys, revisited in a scrambled order,
    // across every growth from the initial capacity: each key's rank
    // must be its first-seen index, as a std::map reference assigns
    // it. The key shapes are those the Emitter feeds the table:
    // call-site keys (a file-name pointer xor line << 20 xor
    // column << 44, key 0 included) and 16B granule numbers.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t line = 0; line < 1500; ++line) {
        keys.push_back(0x5566778899aaull ^ (line << 20) ^
                       ((line % 37) << 44));
        keys.push_back(line << 44);  // differ only in the top bits
        keys.push_back((0x55501000 >> 4) + 3 * line);
    }
    std::uint64_t lcg = 12345;
    auto next = [&] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };

    ut::RankTable table;
    std::map<std::uint64_t, std::uint64_t> ref;
    auto check = [&](std::uint64_t k) {
        auto [it, inserted] = ref.try_emplace(k, ref.size());
        ASSERT_EQ(table.rank(k), it->second) << "key " << k;
    };
    for (std::size_t i = 0; i < keys.size(); ++i) {
        check(keys[i]);
        check(keys[next() % (i + 1)]);  // a revisit
    }
    EXPECT_EQ(table.size(), ref.size());
    EXPECT_GT(ref.size(), 4000u);

    // The same first-seen rule through the Emitter's fallback map:
    // granule n of first appearance maps to fallbackBase + 16 n.
    ut::TraceBuffer buf;
    ut::Emitter em(buf, ut::AddrNormalizer{});
    std::map<std::uint64_t, std::uint64_t> granules;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t addr =
            0x600000000ull + 16 * (next() % 5000) + (next() & 15);
        auto [it, inserted] =
            granules.try_emplace(addr >> 4, granules.size());
        ASSERT_EQ(pushAddr(em, buf, addr, 1),
                  ut::AddrNormalizer::fallbackBase + 16 * it->second +
                      (addr & 15))
            << "step " << i;
    }
    EXPECT_GT(granules.size(), 4000u);
}

// ---- Recorded bytes (the emulator-to-encoder path) ----

TEST(RecordedTrace, PinnedBytesPerKernelFamily)
{
    // One kernel per family, both vector variants, recorded exactly as
    // the sweep runner records a timing group. The record stream is a
    // pure function of (kernel, variant, execs, seed), so any change on
    // the emulator-to-encoder path - PC assignment, address
    // normalization, encoding - that moves a single byte fails here.
    using uasim::core::KernelSpec;
    using uasim::h264::KernelId;
    using uasim::h264::Variant;
    struct Pin {
        KernelSpec spec;
        Variant variant;
        std::uint64_t count, payloadBytes, payloadHash;
    };
    const Pin pins[] = {
        {{KernelId::LumaMc, 16, false}, Variant::Altivec,
         10248, 72993, 17655272319275790957ull},
        {{KernelId::LumaMc, 16, false}, Variant::Unaligned,
         7920, 55959, 16564058478867758632ull},
        {{KernelId::ChromaMc, 8, false}, Variant::Altivec,
         1638, 11361, 10416585779587541589ull},
        {{KernelId::ChromaMc, 8, false}, Variant::Unaligned,
         1104, 7827, 13046482159772586277ull},
        {{KernelId::Idct, 4, false}, Variant::Altivec,
         9120, 59475, 11222475420838904597ull},
        {{KernelId::Idct, 4, false}, Variant::Unaligned,
         7776, 50787, 6597710116882190659ull},
        {{KernelId::Sad, 16, false}, Variant::Altivec,
         1482, 10300, 13362524164127264522ull},
        {{KernelId::Sad, 16, false}, Variant::Unaligned,
         906, 6460, 9569537725559576776ull},
    };
    for (const Pin &p : pins) {
        const auto job = uasim::core::kernelTraceJob(p.spec, p.variant, 6);
        ut::EncodedTrace enc;
        job.record(enc);
        EXPECT_EQ(enc.count(), p.count) << job.key;
        EXPECT_EQ(enc.payloadBytes(), p.payloadBytes) << job.key;
        EXPECT_EQ(ut::wire::payloadHash(enc.payload(), enc.payloadBytes()),
                  p.payloadHash)
            << job.key;
    }
}
