/**
 * @file
 * Compile-time proof that a field table (simResultFields(),
 * sweepStatsFields(): one row per struct member, each naming it
 * through a `member` pointer) is complete. Serialization, parsing and
 * diff gating loop over such a table, so a member without a row would
 * reach no artifact and gate no diff; here it fails the build.
 */

#ifndef UASIM_CORE_FIELD_TABLE_HH
#define UASIM_CORE_FIELD_TABLE_HH

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>

namespace uasim::core {

namespace detail {

/// Converts to any member type (only named in unevaluated operands).
template <std::size_t>
struct AnyMember {
    template <typename T>
    operator T() const;
};

template <typename T, std::size_t... I>
consteval bool
bracesInitWith(std::index_sequence<I...>)
{
    return requires { T{AnyMember<I>{}...}; };
}

} // namespace detail

/// Number of members of aggregate @p T, as Boost.PFR counts them: the
/// largest N for which `T{a1, ..., aN}` is well-formed.
template <typename T, std::size_t N = 0>
consteval std::size_t
memberCount()
{
    static_assert(std::is_aggregate_v<T>);
    if constexpr (detail::bracesInitWith<T>(
                      std::make_index_sequence<N + 1>{}))
        return memberCount<T, N + 1>();
    else
        return N;
}

/// True when no two rows of @p table point at the same member.
template <typename Row, std::size_t N>
consteval bool
distinctMembers(const Row (&table)[N])
{
    for (std::size_t i = 0; i < N; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            if (table[i].member == table[j].member)
                return false;
        }
    }
    return true;
}

/**
 * Proves that @p table names every member of aggregate @p T exactly
 * once, apart from @p unlisted members handled by hand next to each
 * loop over it. Use as `static_assert(coversEveryMember<T, table>());`.
 */
template <typename T, const auto &table, std::size_t unlisted = 0>
consteval bool
coversEveryMember()
{
    static_assert(distinctMembers(table),
                  "field table: two rows name the same member");
    static_assert(memberCount<T>() == std::size(table) + unlisted,
                  "field table: a struct member has no row");
    return true;
}

} // namespace uasim::core

#endif // UASIM_CORE_FIELD_TABLE_HH
