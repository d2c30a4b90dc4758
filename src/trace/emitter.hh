/**
 * @file
 * The Emitter: assigns dynamic ids, synthetic PCs and (optionally)
 * normalized addresses to instructions, and hands each record to its
 * sink in one call.
 */

#ifndef UASIM_TRACE_EMITTER_HH
#define UASIM_TRACE_EMITTER_HH

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <optional>
#include <source_location>
#include <utility>

#include "trace/addrmap.hh"
#include "trace/instr.hh"
#include "trace/sink.hh"

namespace uasim::trace {

/**
 * Assigns dynamic instruction ids and stable synthetic PCs.
 *
 * Each distinct facade call site (file/line/column captured via
 * std::source_location) maps to one synthetic PC, allocated 4 bytes
 * apart from a fixed code base. This gives the branch predictor and the
 * I-cache a realistic static-instruction view without a real binary.
 *
 * An Emitter built with an AddrNormalizer translates every memory
 * record's address through it before the record reaches the sink; one
 * built without passes host addresses through.
 */
class Emitter
{
  public:
    /// Base address of the synthetic code segment.
    static constexpr std::uint64_t codeBase = 0x10000000;

    explicit Emitter(TraceSink &sink) : sink_(&sink) {}

    /// Emitter whose memory records carry addresses mapped by @p map.
    Emitter(TraceSink &sink, AddrNormalizer map)
        : sink_(&sink), map_(std::move(map))
    {}

    TraceSink &sink() const { return *sink_; }

    /// The address map of an Emitter built with one. Regions added
    /// to it apply from the next record on.
    AddrNormalizer &
    addrMap()
    {
        assert(map_);
        return *map_;
    }

    /**
     * Emit a non-memory, non-branch instruction.
     *
     * @return Dep naming this instruction as producer of its result.
     */
    Dep
    emit(InstrClass cls, const std::source_location &loc,
         Dep d0 = {}, Dep d1 = {}, Dep d2 = {})
    {
        InstrRecord rec;
        rec.id = nextId_++;
        rec.pc = pcFor(loc);
        rec.cls = cls;
        rec.deps = {d0.id, d1.id, d2.id};
        sink_->append(rec);
        return Dep{rec.id};
    }

    /// Emit a memory instruction with effective address and width.
    Dep
    emitMem(InstrClass cls, std::uint64_t addr, std::uint8_t size,
            const std::source_location &loc,
            Dep d0 = {}, Dep d1 = {}, Dep d2 = {})
    {
        InstrRecord rec;
        rec.id = nextId_++;
        rec.pc = pcFor(loc);
        rec.cls = cls;
        rec.addr = map_ && isMemClass(cls) ? map_->translate(addr, size)
                                           : addr;
        rec.size = size;
        rec.deps = {d0.id, d1.id, d2.id};
        sink_->append(rec);
        return Dep{rec.id};
    }

    /// Emit a branch with its resolved direction.
    Dep
    emitBranch(bool taken, const std::source_location &loc,
               Dep d0 = {}, Dep d1 = {})
    {
        InstrRecord rec;
        rec.id = nextId_++;
        rec.pc = pcFor(loc);
        rec.cls = InstrClass::Branch;
        rec.taken = taken;
        rec.deps = {d0.id, d1.id, 0};
        sink_->append(rec);
        return Dep{rec.id};
    }

    /// Dynamic instructions emitted so far.
    std::uint64_t count() const { return nextId_ - 1; }

    /// Distinct static call sites seen so far.
    std::size_t staticSites() const { return pcRanks_.size(); }

  private:
    // The memo below keys on the value of a source_location: one
    // pointer to its call site's constant (file, line, column, function)
    // record.
    static_assert(sizeof(std::source_location) == sizeof(std::uintptr_t));

    static constexpr unsigned pcMemoBits = 10;

    /// One direct-mapped memo entry: call site -> its PC (0 = empty).
    struct PcMemo {
        std::uintptr_t site = 0;
        std::uint64_t pc = 0;
    };

    /// Map a source location to its synthetic PC.
    std::uint64_t
    pcFor(const std::source_location &loc)
    {
        const auto site = std::bit_cast<std::uintptr_t>(loc);
        PcMemo &m = pcMemo_[std::size_t(
            (std::uint64_t{site} * 0x9e3779b97f4a7c15ull) >>
            (64 - pcMemoBits))];
        if (m.site != site || m.pc == 0)
            m = {site, rankedPc(loc)};
        return m.pc;
    }

    /// The PC of @p loc's (file, line, column), numbered in first-seen
    /// order; locations that share it (an inline function's, one per
    /// translation unit, say) share the PC.
    std::uint64_t
    rankedPc(const std::source_location &loc)
    {
        // file_name() returns a stable pointer per call site, so hashing
        // the pointer value is both cheap and collision-safe in practice.
        std::uint64_t key =
            reinterpret_cast<std::uint64_t>(loc.file_name()) ^
            (std::uint64_t{loc.line()} << 20) ^
            (std::uint64_t{loc.column()} << 44);
        return codeBase + 4 * pcRanks_.rank(key);
    }

    TraceSink *sink_;
    std::optional<AddrNormalizer> map_;
    std::uint64_t nextId_ = 1;
    RankTable pcRanks_;  //!< call-site key -> first-seen rank
    std::array<PcMemo, std::size_t{1} << pcMemoBits> pcMemo_{};
};

} // namespace uasim::trace

#endif // UASIM_TRACE_EMITTER_HH
