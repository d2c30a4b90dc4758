/**
 * @file
 * The determinism prelude of the simulated layer.
 *
 * Every simulated result is a pure function of (trace, config): the
 * golden tests, the batched-vs-oracle harnesses and the bit-exact
 * baseline gates all rest on it. The build force-includes this header
 * (GCC/Clang `-include`) into the layer that computes those results:
 * every src/timing/ source, src/core/{sweep,experiment,campaign}.cc
 * and tools/uasim_sweep.cc (UASIM_DETERMINISM_SCOPE in the top-level
 * CMakeLists.txt; compile_check fails when one of them is built
 * without it). After the header, wall-clock reads, random numbers and
 * unordered containers - whose iteration order is host-dependent -
 * are poisoned identifiers, so a use in any of those files or in a
 * header they include does not compile.
 *
 * In order, the header holds:
 *  - every standard header the scoped code includes, so the library's
 *    own uses of the banned names are lexed before the poison (a
 *    scoped file that needs a new standard header adds it here);
 *  - the two emulation-layer headers that use std::unordered_map for
 *    host-address bookkeeping that never reaches a simulated counter
 *    (trace/addrmap.hh, trace/emitter.hh);
 *  - WallClock and secondsSince(), the one clock the simulated layer
 *    may read: it feeds only the *Seconds informational stats, which
 *    no simulated counter reads and the artifact differ ignores;
 *  - the poison.
 *
 * sweep.cc, which reads WallClock, includes this header explicitly,
 * so it builds where nothing is force-included.
 */

#ifndef UASIM_CORE_DETERMINISM_HH
#define UASIM_CORE_DETERMINISM_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cctype>
#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <source_location>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "trace/addrmap.hh"
#include "trace/emitter.hh"

namespace uasim::core {

/// The simulated layer's one clock, for the *Seconds stats only.
using WallClock = std::chrono::steady_clock;

/// Seconds elapsed on WallClock since @p start.
inline double
secondsSince(WallClock::time_point start)
{
    return std::chrono::duration<double>(WallClock::now() - start).count();
}

} // namespace uasim::core

// The pragma is GCC's, which Clang honours too; other compilers never
// see it.
#if defined(__GNUC__)
#pragma GCC poison chrono steady_clock system_clock high_resolution_clock
#pragma GCC poison random_device mt19937 mt19937_64 default_random_engine
#pragma GCC poison rand srand rand_r drand48 random
#pragma GCC poison time clock clock_gettime gettimeofday
#pragma GCC poison unordered_map unordered_set unordered_multimap
#pragma GCC poison unordered_multiset
#endif

#endif // UASIM_CORE_DETERMINISM_HH
