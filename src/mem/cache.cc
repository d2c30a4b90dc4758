#include "mem/cache.hh"

#include <bit>
#include <limits>
#include <stdexcept>

namespace uasim::mem {

namespace {

[[noreturn]] void
badGeometry(const CacheConfig &cfg, const std::string &why)
{
    throw std::invalid_argument("cache \"" + cfg.name + "\": " + why);
}

} // namespace

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg)
{
    if (cfg_.lineSize < 4 || !std::has_single_bit(cfg_.lineSize))
        badGeometry(cfg_, "lineSize " + std::to_string(cfg_.lineSize) +
                              " is not a power of two >= 4");
    if (cfg_.assoc == 0)
        badGeometry(cfg_, "assoc is 0");
    const std::uint64_t sets =
        cfg_.size / (std::uint64_t{cfg_.lineSize} * cfg_.assoc);
    if (sets == 0 || !std::has_single_bit(sets) ||
        sets > std::numeric_limits<unsigned>::max())
        badGeometry(cfg_, "set count " + std::to_string(sets) +
                              " is not a power of two in [1, 2^32)");
    numSets_ = static_cast<unsigned>(sets);
    setShift_ = std::countr_zero(cfg_.lineSize);
    lines_.resize(std::size_t{numSets_} * cfg_.assoc);
}

Cache::Line *
Cache::set(std::uint64_t addr)
{
    std::uint64_t idx = (addr >> setShift_) & (numSets_ - 1);
    return &lines_[idx * cfg_.assoc];
}

const Cache::Line *
Cache::set(std::uint64_t addr) const
{
    std::uint64_t idx = (addr >> setShift_) & (numSets_ - 1);
    return &lines_[idx * cfg_.assoc];
}

bool
Cache::access(std::uint64_t addr, bool is_write)
{
    const std::uint64_t tag = addr >> setShift_;
    const std::uint64_t key = tag | validBit;
    Line *ways = set(addr);
    ++stats_.accesses;
    ++lruClock_;

    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if ((ways[w].tagWord & ~dirtyBit) == key) {
            ways[w].lru = lruClock_;
            if (is_write)
                ways[w].tagWord |= dirtyBit;
            ++stats_.hits;
            return true;
        }
    }

    ++stats_.misses;

    // Choose victim: first invalid way, else LRU.
    Line *victim = &ways[0];
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (!(ways[w].tagWord & validBit)) {
            victim = &ways[w];
            break;
        }
        if (ways[w].lru < victim->lru)
            victim = &ways[w];
    }
    if (victim->tagWord & dirtyBit)  // only a valid line is ever dirty
        ++stats_.writebacks;

    victim->tagWord = is_write ? key | dirtyBit : key;
    victim->lru = lruClock_;
    return false;
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t key = (addr >> setShift_) | validBit;
    const Line *ways = set(addr);
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if ((ways[w].tagWord & ~dirtyBit) == key)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line = Line{};
}

} // namespace uasim::mem
