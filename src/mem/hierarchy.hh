/**
 * @file
 * Two-level memory hierarchy with the paper's alignment-network model.
 *
 * Geometry follows Table II: split 32KB L1-I / L1-D, unified 1MB L2
 * (12-cycle latency), 250-cycle main memory. A data access that spans
 * two cache lines probes both; with the two-bank interleaved alignment
 * network of Fig 7 the probes proceed in parallel (latency = max),
 * without it they serialize (latency = sum) - that switch is the
 * "short bus / sequential miss handling" restriction of older designs.
 */

#ifndef UASIM_MEM_HIERARCHY_HH
#define UASIM_MEM_HIERARCHY_HH

#include "mem/cache.hh"

namespace uasim::mem {

/// Full hierarchy configuration (Table II defaults).
struct HierarchyConfig {
    CacheConfig l1i{"L1-I", 32 * 1024, 128, 1};
    CacheConfig l1d{"L1-D", 32 * 1024, 128, 2};
    CacheConfig l2{"L2", 1024 * 1024, 128, 8};
    int l2Latency = 12;     //!< extra cycles for an L1 miss / L2 hit
    int memLatency = 250;   //!< extra cycles for an L2 miss
    /// Fig 7 two-bank interleaved L1-D: line-crossing accesses probe
    /// both lines in parallel.
    bool parallelBanks = true;
    /**
     * Memory-bus bandwidth in bytes per cycle; 0 (the default)
     * disables the throttle. When enabled, each L2-miss line fill
     * occupies the bus for ceil(lineSize / memBWBytesPerCycle)
     * cycles, and a fill arriving while the bus is busy pays the
     * queuing delay on top of memLatency. Isolated misses see
     * unchanged latency either way - only concurrent miss traffic
     * beyond the configured bandwidth is penalized (the esesc memBW
     * model; SCOORE derives ~11 B/cycle from DDR2-800 at 4.5 GHz).
     */
    int memBWBytesPerCycle = 0;

    auto operator<=>(const HierarchyConfig &) const = default;
};

/// Outcome of one data-side access.
struct AccessResult {
    int extraLatency = 0;   //!< cycles beyond the L1-hit latency
    bool l1Miss = false;
    bool l2Miss = false;
    bool crossedLine = false;
};

/**
 * The hierarchy model: owns the three caches and computes the extra
 * latency of each access. Bandwidth (ports, MSHRs) is arbitrated by the
 * pipeline model, not here.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &cfg);

    /**
     * Data access covering [addr, addr+size).
     * Accesses the L1-D (both lines if the range crosses a boundary)
     * and the L2 on miss. @p now is the requesting core's current
     * cycle, used only by the memBWBytesPerCycle throttle (callers
     * that never enable it may leave the default).
     */
    AccessResult dataAccess(std::uint64_t addr, unsigned size,
                            bool is_write, std::uint64_t now = 0);

    /// Instruction fetch of the line containing @p pc.
    AccessResult fetchAccess(std::uint64_t pc, std::uint64_t now = 0);

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const HierarchyConfig &config() const { return cfg_; }

    /// Invalidate all levels (stats preserved).
    void flush();
    void clearStats();

  private:
    /// One line's latency through L1-D -> L2 -> memory.
    int lineLatency(std::uint64_t line_addr, bool is_write,
                    AccessResult &res, std::uint64_t now);

    /// Bandwidth throttle: queuing delay of an L2-miss fill issued at
    /// @p now, advancing the bus-busy horizon by the line's transfer
    /// time. 0 when the throttle is disabled.
    int busDelay(std::uint64_t now, unsigned line_bytes);

    HierarchyConfig cfg_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    std::uint64_t busFree_ = 0;  //!< first cycle the memory bus is idle
};

} // namespace uasim::mem

#endif // UASIM_MEM_HIERARCHY_HH
