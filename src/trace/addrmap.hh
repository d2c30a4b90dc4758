/**
 * @file
 * Address map for deterministic simulation.
 *
 * Trace records carry host addresses; cache behaviour must not depend
 * on where the host allocator happened to place buffers. An Emitter
 * built with an AddrNormalizer maps each memory record's address
 * through it before the record reaches its sink. The map rebases each
 * registered buffer onto a fixed virtual base (preserving internal
 * layout exactly) and maps each unregistered 16-byte granule
 * (constant pool, clip tables, spill slots) onto a stable virtual
 * granule in order of first appearance, preserving the in-granule
 * offset. Fallback traffic is at most 16 bytes wide and at least
 * naturally aligned (vector slots are alignas(16)), so (addr & 15) is
 * host-independent, no access straddles a granule, and the whole
 * translated stream - and with it the simulated cycle count - is
 * identical across hosts, allocators and sanitizer builds. The cost
 * is that side-table walks lose host spatial adjacency across
 * granules: the fallback region models working-set size, not the
 * tables' exact line packing.
 */

#ifndef UASIM_TRACE_ADDRMAP_HH
#define UASIM_TRACE_ADDRMAP_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace uasim::trace {

/**
 * Open-addressed map from a 64-bit key to its rank: the number of
 * distinct keys seen before it. Power-of-two capacity, multiplicative
 * hash, linear probing, doubling at half load. A rank depends only on
 * the order keys arrive in, never on the hash or the capacity.
 */
class RankTable
{
  public:
    /// Rank of @p key, assigning the next one on first sight.
    std::uint64_t
    rank(std::uint64_t key)
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.rankPlus1 == 0)
                return insert(key);
            if (s.key == key)
                return s.rankPlus1 - 1;
        }
    }

    /// Distinct keys seen so far.
    std::size_t size() const { return size_; }

  private:
    static constexpr unsigned initialBits = 6;

    struct Slot {
        std::uint64_t key = 0;
        std::uint64_t rankPlus1 = 0;  //!< 0 = empty
    };

    /// Home slot: the top bits of a Fibonacci multiply.
    std::size_t
    home(std::uint64_t key) const
    {
        return std::size_t((key * 0x9e3779b97f4a7c15ull) >> (64 - bits_));
    }

    /// Add @p key (not present) with the next rank, growing first
    /// when the table would pass half load. @return its rank.
    std::uint64_t insert(std::uint64_t key);

    /// Place @p s in its first free slot from its home.
    void place(const Slot &s);

    unsigned bits_ = initialBits;
    std::size_t mask_ = (std::size_t{1} << initialBits) - 1;
    std::vector<Slot> slots_ = std::vector<Slot>(mask_ + 1);
    std::size_t size_ = 0;
};

/// Host-to-virtual address map of one recording (see the file
/// comment); an Emitter built with one applies it.
class AddrNormalizer
{
  public:
    /**
     * Rebase [base, base+size) onto @p vbase. The timing model reads
     * (addr & 15) and line crossings off translated addresses, so the
     * virtual base keeps the host base's 16B alignment phase: the low
     * 4 bits of @p vbase are replaced with those of @p base.
     */
    void
    addRegion(const void *base, std::size_t size, std::uint64_t vbase)
    {
        auto b = reinterpret_cast<std::uint64_t>(base);
        vbase = (vbase & ~std::uint64_t{0xf}) | (b & 0xf);
        regions_.push_back({b, size, vbase});
    }

    /// Region of unregistered (fallback) addresses.
    static constexpr std::uint64_t fallbackBase = 0x7f000000;

    /// The virtual address of the @p size byte access at host @p addr.
    std::uint64_t
    translate(std::uint64_t addr, [[maybe_unused]] unsigned size = 0)
    {
        for (const auto &r : regions_) {
            if (addr >= r.base && addr < r.base + r.size)
                return r.vbase + (addr - r.base);
        }
        // The host-independence guarantee requires fallback accesses
        // to stay inside one granule; wide or unaligned traffic
        // belongs in a registered region (addRegion).
        assert((addr & granuleMask) + size <= (1u << granuleShift) &&
               "fallback access straddles a 16B granule; register the "
               "buffer with addRegion()");
        const std::uint64_t granule =
            (fallbackBase >> granuleShift) +
            fallbackGranules_.rank(addr >> granuleShift);
        return (granule << granuleShift) | (addr & granuleMask);
    }

  private:
    static constexpr unsigned granuleShift = 4;
    static constexpr std::uint64_t granuleMask =
        (1ull << granuleShift) - 1;

    struct Region {
        std::uint64_t base;
        std::size_t size;
        std::uint64_t vbase;
    };

    std::vector<Region> regions_;
    RankTable fallbackGranules_;
};

} // namespace uasim::trace

#endif // UASIM_TRACE_ADDRMAP_HH
