/**
 * @file
 * Unit tests for the cache and memory-hierarchy models.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"

using namespace uasim::mem;

namespace {

/**
 * Plain true-LRU, write-back, write-allocate reference: each set is a
 * list of (line number, dirty) pairs, least recent first. Nothing is
 * packed, so it is the specification the packed Cache must follow.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(const CacheConfig &cfg)
        : lineSize_(cfg.lineSize), assoc_(cfg.assoc),
          sets_(cfg.size / (std::uint64_t{cfg.lineSize} * cfg.assoc))
    {
    }

    bool
    resident(std::uint64_t addr) const
    {
        const std::uint64_t line = addr / lineSize_;
        for (const Entry &e : sets_[line % sets_.size()]) {
            if (e.line == line)
                return true;
        }
        return false;
    }

    bool
    access(std::uint64_t addr, bool is_write)
    {
        ++stats.accesses;
        const std::uint64_t line = addr / lineSize_;
        std::vector<Entry> &set = sets_[line % sets_.size()];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->line == line) {
                Entry e = *it;
                e.dirty = e.dirty || is_write;
                set.erase(it);
                set.push_back(e);
                ++stats.hits;
                return true;
            }
        }
        ++stats.misses;
        if (set.size() == assoc_) {
            stats.writebacks += set.front().dirty;
            set.erase(set.begin());
        }
        set.push_back({line, is_write});
        return false;
    }

    CacheStats stats;

  private:
    struct Entry {
        std::uint64_t line;
        bool dirty;
    };

    std::uint64_t lineSize_;
    std::size_t assoc_;
    std::vector<std::vector<Entry>> sets_;
};

std::string
rejection(const CacheConfig &cfg)
{
    try {
        Cache c(cfg);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return {};
}

} // namespace

TEST(Cache, GeometryDerivation)
{
    Cache c({"L1", 32 * 1024, 128, 2});
    EXPECT_EQ(c.numSets(), 128u);
    EXPECT_EQ(c.lineAddr(0x12345), 0x12345ull & ~127ull);
}

TEST(Cache, HitAfterMiss)
{
    Cache c({"L1", 32 * 1024, 128, 2});
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x107f, false));  // same line
    EXPECT_FALSE(c.access(0x1080, false)); // next line
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way set: three conflicting lines evict the least recent.
    Cache c({"tiny", 1024, 128, 2});  // 4 sets
    std::uint64_t set_stride = 128 * 4;
    std::uint64_t a = 0, b = set_stride, d = 2 * set_stride;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);   // a most recent
    c.access(d, false);   // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, WritebackOnDirtyEviction)
{
    Cache c({"tiny", 1024, 128, 2});
    std::uint64_t set_stride = 128 * 4;
    c.access(0, true);                 // dirty
    c.access(set_stride, false);
    c.access(2 * set_stride, false);   // evicts dirty line 0
    EXPECT_EQ(c.stats().writebacks, 1u);
    c.access(3 * set_stride, false);   // evicts clean line
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, ProbeDoesNotMutate)
{
    Cache c({"L1", 32 * 1024, 128, 2});
    EXPECT_FALSE(c.probe(0x4000));
    EXPECT_EQ(c.stats().accesses, 0u);
    c.access(0x4000, false);
    EXPECT_TRUE(c.probe(0x4000));
}

TEST(Cache, FlushInvalidates)
{
    Cache c({"L1", 32 * 1024, 128, 2});
    c.access(0x2000, false);
    c.flush();
    EXPECT_FALSE(c.probe(0x2000));
}

TEST(Cache, SmallestLineSizeIsAccepted)
{
    Cache c({"tiny", 64, 4, 2});
    EXPECT_EQ(c.numSets(), 8u);
    EXPECT_EQ(c.lineAddr(0x17), 0x14u);
}

TEST(Cache, RejectsLineSizeNotPowerOfTwo)
{
    EXPECT_NE(rejection({"L1", 32 * 1024, 96, 2}).find("lineSize 96"),
              std::string::npos);
    EXPECT_NE(rejection({"L1", 32 * 1024, 0, 2}), "");
}

TEST(Cache, RejectsLineSizeBelowFour)
{
    EXPECT_NE(rejection({"L1", 32 * 1024, 2, 2}).find("lineSize 2"),
              std::string::npos);
    EXPECT_NE(rejection({"L1", 32 * 1024, 1, 2}), "");
}

TEST(Cache, RejectsZeroAssoc)
{
    EXPECT_NE(rejection({"L1", 32 * 1024, 128, 0}).find("assoc is 0"),
              std::string::npos);
}

TEST(Cache, RejectsZeroSets)
{
    // One 2-way set of 128-byte lines needs 256 bytes.
    EXPECT_NE(rejection({"L1", 255, 128, 2}).find("set count 0"),
              std::string::npos);
}

TEST(Cache, RejectsSetCountNotPowerOfTwo)
{
    const std::string why = rejection({"L2", 3 * 1024, 128, 2});
    EXPECT_NE(why.find("set count 12"), std::string::npos) << why;
    EXPECT_NE(why.find("\"L2\""), std::string::npos) << why;
}

TEST(Cache, MatchesReferenceLru)
{
    // Seeded random streams over a pool of lines per geometry, with
    // aliases that differ from another pool line only in address bits
    // 60-63: a tag that lost any of them would hit where the
    // reference misses.
    const std::vector<CacheConfig> geometries = {
        {"line4", 64, 4, 2},         {"direct", 256, 16, 1},
        {"l1d", 32 * 1024, 128, 2},  {"l2", 1024 * 1024, 128, 8},
        {"wide", 4096, 64, 4},       {"fullyAssoc", 256, 32, 8},
        {"line8", 512, 8, 8},
    };
    for (const CacheConfig &cfg : geometries) {
        SCOPED_TRACE(cfg.name);
        Cache cache(cfg);
        ReferenceLru ref(cfg);
        std::mt19937_64 rng(0x5eed ^ cfg.size ^ cfg.lineSize);
        const std::uint64_t lines = cfg.size / cfg.lineSize;
        std::vector<std::uint64_t> pool;
        for (std::uint64_t i = 0; i < 3 * lines; ++i) {
            const std::uint64_t line = rng() % (8 * lines);
            pool.push_back(line * cfg.lineSize);
            pool.push_back(pool.back() ^ (std::uint64_t(1 + rng() % 15) << 60));
        }
        std::uint64_t hits = 0;
        for (int i = 0; i < 200000; ++i) {
            const std::uint64_t addr =
                pool[rng() % pool.size()] + rng() % cfg.lineSize;
            const bool is_write = rng() % 3 == 0;
            ASSERT_EQ(cache.probe(addr), ref.resident(addr)) << "access " << i;
            const bool hit = cache.access(addr, is_write);
            ASSERT_EQ(hit, ref.access(addr, is_write))
                << "access " << i << " addr " << std::hex << addr;
            hits += hit;
        }
        EXPECT_GT(hits, 0u);
        EXPECT_LT(hits, 200000u);
        EXPECT_EQ(cache.stats().accesses, ref.stats.accesses);
        EXPECT_EQ(cache.stats().hits, ref.stats.hits);
        EXPECT_EQ(cache.stats().misses, ref.stats.misses);
        EXPECT_EQ(cache.stats().writebacks, ref.stats.writebacks);
        EXPECT_GT(ref.stats.writebacks, 0u);
    }
}

TEST(Hierarchy, LatencyLevels)
{
    MemoryHierarchy mh{HierarchyConfig{}};
    // Cold: L1 miss + L2 miss -> l2 + memory latency.
    auto r1 = mh.dataAccess(0x100000, 16, false);
    EXPECT_TRUE(r1.l1Miss);
    EXPECT_TRUE(r1.l2Miss);
    EXPECT_EQ(r1.extraLatency, 12 + 250);
    // Warm in L1: no extra latency.
    auto r2 = mh.dataAccess(0x100000, 16, false);
    EXPECT_FALSE(r2.l1Miss);
    EXPECT_EQ(r2.extraLatency, 0);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryHierarchy mh{HierarchyConfig{}};
    mh.dataAccess(0x0, 16, false);
    // Walk enough conflicting lines to evict line 0 from the 2-way L1
    // (way stride = 16KB) but keep it in the 8-way 1MB L2.
    for (int i = 1; i <= 4; ++i)
        mh.dataAccess(std::uint64_t(i) * 16 * 1024, 16, false);
    auto r = mh.dataAccess(0x0, 16, false);
    EXPECT_TRUE(r.l1Miss);
    EXPECT_FALSE(r.l2Miss);
    EXPECT_EQ(r.extraLatency, 12);
}

TEST(Hierarchy, LineCrossingParallelBanks)
{
    HierarchyConfig cfg;
    cfg.parallelBanks = true;
    MemoryHierarchy mh{cfg};
    // Warm both lines.
    mh.dataAccess(0x1000, 16, false);
    mh.dataAccess(0x1080, 16, false);
    // 16B access straddling the 128B boundary: both lines hit, and
    // with the Fig 7 interleaved banks the latency stays zero extra.
    auto r = mh.dataAccess(0x1078, 16, false);
    EXPECT_TRUE(r.crossedLine);
    EXPECT_EQ(r.extraLatency, 0);
}

TEST(Hierarchy, LineCrossingColdParallelVsSerial)
{
    // Both lines cold in L1 (L2 resident): parallel banks pay max(12,
    // 12) = 12; a serial design pays 24.
    for (bool parallel : {true, false}) {
        HierarchyConfig cfg;
        cfg.parallelBanks = parallel;
        MemoryHierarchy mh{cfg};
        // Install in L2 by touching once, then evicting from L1.
        mh.dataAccess(0x1000, 16, false);
        mh.dataAccess(0x1080, 16, false);
        for (int i = 1; i <= 4; ++i) {
            mh.dataAccess(0x1000 + std::uint64_t(i) * 16 * 1024, 16,
                          false);
            mh.dataAccess(0x1080 + std::uint64_t(i) * 16 * 1024, 16,
                          false);
        }
        auto r = mh.dataAccess(0x1078, 16, false);
        EXPECT_TRUE(r.crossedLine);
        EXPECT_TRUE(r.l1Miss);
        EXPECT_EQ(r.extraLatency, parallel ? 12 : 24);
    }
}

TEST(Hierarchy, FetchPath)
{
    MemoryHierarchy mh{HierarchyConfig{}};
    auto r1 = mh.fetchAccess(0x10000000);
    EXPECT_TRUE(r1.l1Miss);
    auto r2 = mh.fetchAccess(0x10000004);  // same line
    EXPECT_FALSE(r2.l1Miss);
    EXPECT_EQ(r2.extraLatency, 0);
}

TEST(Hierarchy, TableTwoGeometry)
{
    HierarchyConfig cfg;
    EXPECT_EQ(cfg.l1d.size, 32u * 1024);
    EXPECT_EQ(cfg.l1d.assoc, 2u);
    EXPECT_EQ(cfg.l1d.lineSize, 128u);
    EXPECT_EQ(cfg.l1i.assoc, 1u);
    EXPECT_EQ(cfg.l2.size, 1024u * 1024);
    EXPECT_EQ(cfg.l2.assoc, 8u);
    EXPECT_EQ(cfg.l2Latency, 12);
    EXPECT_EQ(cfg.memLatency, 250);
}
