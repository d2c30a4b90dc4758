/**
 * @file
 * Dynamic instruction records produced by the emulation facades.
 *
 * Every architectural instruction executed by a traced kernel becomes one
 * InstrRecord. Records carry a synthetic PC (stable per static call site),
 * the effective address for memory operations, the taken direction for
 * branches, and up to three data-dependence ids pointing at producer
 * instructions, so the stream is a true dataflow graph.
 */

#ifndef UASIM_TRACE_INSTR_HH
#define UASIM_TRACE_INSTR_HH

#include <array>
#include <cstdint>
#include <string_view>

namespace uasim::trace {

/**
 * Architectural instruction classes.
 *
 * The vector classes mirror the unit/accounting split the paper uses in
 * Table III: loads, stores, simple (VX integer ALU), complex (multiply /
 * multiply-add / sum-across), and permute. The unaligned vector memory
 * classes are the paper's proposed LVXU/STVXU instructions; they are kept
 * distinct from the aligned ones so the timing model can charge the
 * realignment-network latency and the mix statistics can fold them into
 * the same Table III columns.
 */
enum class InstrClass : std::uint8_t {
    IntAlu,      //!< scalar integer ALU (add, logic, shift, compare)
    IntMul,      //!< scalar integer multiply
    Load,        //!< scalar load
    Store,       //!< scalar store
    Branch,      //!< conditional/unconditional branch
    FpAlu,       //!< scalar floating point (decoder glue only)
    VecLoad,     //!< aligned vector load (lvx; effective address forced)
    VecStore,    //!< aligned vector store (stvx)
    VecLoadU,    //!< unaligned vector load (lvxu, this paper's proposal)
    VecStoreU,   //!< unaligned vector store (stvxu)
    VecSimple,   //!< VX simple integer (add/sub/min/max/sel/logic/shift)
    VecComplex,  //!< VX complex (mladd/mradds/msum/sum4s/sums)
    VecPerm,     //!< permute class (vperm/merge/pack/unpack/splat/lvsl)
    NumClasses
};

/// Number of distinct instruction classes.
constexpr int numInstrClasses =
    static_cast<int>(InstrClass::NumClasses);

/// Short mnemonic-style name for an instruction class.
std::string_view instrClassName(InstrClass cls);

/// True for any class that references memory.
constexpr bool
isMemClass(InstrClass cls)
{
    return cls == InstrClass::Load || cls == InstrClass::Store ||
           cls == InstrClass::VecLoad || cls == InstrClass::VecStore ||
           cls == InstrClass::VecLoadU || cls == InstrClass::VecStoreU;
}

/// True for loads of any width.
constexpr bool
isLoadClass(InstrClass cls)
{
    return cls == InstrClass::Load || cls == InstrClass::VecLoad ||
           cls == InstrClass::VecLoadU;
}

/// True for stores of any width.
constexpr bool
isStoreClass(InstrClass cls)
{
    return cls == InstrClass::Store || cls == InstrClass::VecStore ||
           cls == InstrClass::VecStoreU;
}

/// True for the vector (Altivec) classes.
constexpr bool
isVectorClass(InstrClass cls)
{
    return cls >= InstrClass::VecLoad && cls <= InstrClass::VecPerm;
}

/// True for the unaligned vector memory classes (lvxu/stvxu).
constexpr bool
isUnalignedVecMem(InstrClass cls)
{
    return cls == InstrClass::VecLoadU || cls == InstrClass::VecStoreU;
}

/**
 * Data-dependence handle: the dynamic id of a producer instruction.
 *
 * Id 0 means "no dependence" (immediate operand or architected state that
 * was live before tracing started). Ids are assigned from 1 by the
 * Emitter.
 */
struct Dep {
    std::uint64_t id = 0;

    constexpr bool valid() const { return id != 0; }
};

/**
 * One dynamic instruction.
 *
 * @note `addr`/`size` are only meaningful when isMemClass(cls); `taken`
 * only when cls == Branch.
 */
struct InstrRecord {
    std::uint64_t id = 0;     //!< dynamic id, 1-based, strictly increasing
    std::uint64_t pc = 0;     //!< synthetic static PC of the call site
    std::uint64_t addr = 0;   //!< effective address (memory ops)
    std::array<std::uint64_t, 3> deps{};  //!< producer ids (0 = none)
    InstrClass cls = InstrClass::IntAlu;
    std::uint8_t size = 0;    //!< access width in bytes (memory ops)
    bool taken = false;       //!< branch direction (branches)

    /// True if this record references memory.
    bool isMem() const { return isMemClass(cls); }
    /// True if this record is a load.
    bool isLoad() const { return isLoadClass(cls); }
    /// True if this record is a store.
    bool isStore() const { return isStoreClass(cls); }
};

} // namespace uasim::trace

#endif // UASIM_TRACE_INSTR_HH
