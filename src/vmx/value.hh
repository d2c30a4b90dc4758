/**
 * @file
 * Traced value types used by the emulation facades.
 *
 * Every value produced by a traced instruction carries a trace::Dep
 * naming its producer, so consumers record true data dependences.
 */

#ifndef UASIM_VMX_VALUE_HH
#define UASIM_VMX_VALUE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>

#include "trace/instr.hh"

namespace uasim::vmx {

/**
 * Traced 64-bit scalar integer (a GPR value).
 */
struct SInt {
    std::int64_t v = 0;
    trace::Dep dep{};
};

/**
 * Traced mutable pointer (a GPR holding an address).
 */
struct Ptr {
    std::uint8_t *p = nullptr;
    trace::Dep dep{};
};

/**
 * Traced read-only pointer.
 */
struct CPtr {
    const std::uint8_t *p = nullptr;
    trace::Dep dep{};

    CPtr() = default;
    CPtr(const std::uint8_t *ptr, trace::Dep d = {}) : p(ptr), dep(d) {}
    /// A Ptr converts freely to a CPtr (non-traced register copy).
    CPtr(const Ptr &w) : p(w.p), dep(w.dep) {}
};

/**
 * Traced 128-bit vector register value.
 *
 * Lane convention: element 0 lives at the lowest byte address; multi-byte
 * lanes are host-endian. This is "memory order" lane numbering: a vector
 * loaded from memory and read back lane-by-lane matches the bytes in
 * memory. Big-endian Altivec idioms that rely on byte placement inside a
 * lane (e.g. vmrghb(zero, v) for zero-extension) are mirrored
 * (mergeh8(v, zero) here); instruction counts and classes are identical.
 */
struct Vec {
    std::array<std::uint8_t, 16> b{};
    trace::Dep dep{};

    /// @name Lane accessors (i is the element index, memory order)
    /// @{
    std::uint8_t u8(int i) const { return b[i]; }
    std::int8_t s8(int i) const { return static_cast<std::int8_t>(b[i]); }

    std::uint16_t
    u16(int i) const
    {
        std::uint16_t x;
        std::memcpy(&x, &b[2 * i], 2);
        return x;
    }
    std::int16_t
    s16(int i) const
    {
        return static_cast<std::int16_t>(u16(i));
    }
    void setU16(int i, std::uint16_t x) { std::memcpy(&b[2 * i], &x, 2); }
    void
    setS16(int i, std::int16_t x)
    {
        setU16(i, static_cast<std::uint16_t>(x));
    }

    std::uint32_t
    u32(int i) const
    {
        std::uint32_t x;
        std::memcpy(&x, &b[4 * i], 4);
        return x;
    }
    std::int32_t
    s32(int i) const
    {
        return static_cast<std::int32_t>(u32(i));
    }
    void setU32(int i, std::uint32_t x) { std::memcpy(&b[4 * i], &x, 4); }
    void
    setS32(int i, std::int32_t x)
    {
        setU32(i, static_cast<std::uint32_t>(x));
    }
    /// @}
};

/// Build an untraced vector from explicit bytes (test helper).
inline Vec
makeVecU8(std::initializer_list<std::uint8_t> bytes)
{
    Vec v;
    int i = 0;
    for (auto x : bytes) {
        if (i >= 16)
            break;
        v.b[i++] = x;
    }
    return v;
}

/// Build an untraced vector from 8 s16 lanes (test helper).
inline Vec
makeVecS16(std::initializer_list<std::int16_t> lanes)
{
    Vec v;
    int i = 0;
    for (auto x : lanes) {
        if (i >= 8)
            break;
        v.setS16(i++, x);
    }
    return v;
}

/// Build an untraced vector from 4 s32 lanes (test helper).
inline Vec
makeVecS32(std::initializer_list<std::int32_t> lanes)
{
    Vec v;
    int i = 0;
    for (auto x : lanes) {
        if (i >= 4)
            break;
        v.setS32(i++, x);
    }
    return v;
}

} // namespace uasim::vmx

#endif // UASIM_VMX_VALUE_HH
