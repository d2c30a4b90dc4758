// Suppression is per-rule: allowing another rule does not silence the
// sim-determinism finding on this line.

#include <chrono>  // uasim-lint: allow(other-rule)

inline double
tick()
{
    return 3.0;
}
