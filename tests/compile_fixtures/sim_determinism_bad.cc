// Fails with "poisoned" after the determinism prelude: wall-clock,
// libc randomness and an unordered container in simulated code. Each
// line marked "poisoned:" must fail on the names it lists.

#include <chrono>
#include <cstdlib>
#include <unordered_map>

inline double
sampleWall()
{
    const auto t0 = std::chrono::steady_clock::now();  // poisoned: chrono steady_clock
    (void)t0;
    return static_cast<double>(std::rand());  // poisoned: rand
}

inline std::unordered_map<int, int> hotTable;  // poisoned: unordered_map
