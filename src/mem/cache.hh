/**
 * @file
 * Set-associative cache model with LRU replacement.
 */

#ifndef UASIM_MEM_CACHE_HH
#define UASIM_MEM_CACHE_HH

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace uasim::mem {

/// Geometry of one cache level.
struct CacheConfig {
    std::string name = "cache";
    std::uint64_t size = 32 * 1024;   //!< total bytes
    unsigned lineSize = 128;          //!< bytes per line (power of two, >= 4)
    unsigned assoc = 2;               //!< ways per set

    auto operator<=>(const CacheConfig &) const = default;
};

/// Hit/miss/writeback counters.
struct CacheStats {
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
};

/**
 * Write-back, write-allocate, true-LRU set-associative cache.
 *
 * Timing is owned by the hierarchy / pipeline; this class tracks
 * contents and statistics only.
 */
class Cache
{
  public:
    /**
     * @throws std::invalid_argument unless lineSize is a power of two
     * of at least 4, assoc is nonzero and size / (lineSize * assoc)
     * is a nonzero power of two.
     */
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access the line containing @p addr; allocates on miss.
     * @return true on hit.
     */
    bool access(std::uint64_t addr, bool is_write);

    /// Lookup without state change. @return true if resident.
    bool probe(std::uint64_t addr) const;

    /// Invalidate everything (keeps stats).
    void flush();

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats{}; }

    unsigned numSets() const { return numSets_; }

    /// Line-aligned address of @p addr.
    std::uint64_t
    lineAddr(std::uint64_t addr) const
    {
        return addr & ~std::uint64_t{cfg_.lineSize - 1};
    }

  private:
    /// Valid and dirty flags live in the top two bits of the tag word.
    /// A tag is addr >> log2(lineSize) and lineSize >= 4, so no tag
    /// reaches either bit.
    static constexpr std::uint64_t validBit = std::uint64_t{1} << 63;
    static constexpr std::uint64_t dirtyBit = std::uint64_t{1} << 62;

    struct Line {
        std::uint64_t tagWord = 0;  //!< tag | validBit | dirtyBit
        std::uint64_t lru = 0;
    };
    static_assert(sizeof(Line) == 16);

    CacheConfig cfg_;
    CacheStats stats_;
    unsigned numSets_;
    unsigned setShift_;
    std::uint64_t lruClock_ = 0;
    std::vector<Line> lines_;  //!< numSets_ x assoc, row-major

    Line *set(std::uint64_t addr);
    const Line *set(std::uint64_t addr) const;
};

} // namespace uasim::mem

#endif // UASIM_MEM_CACHE_HH
