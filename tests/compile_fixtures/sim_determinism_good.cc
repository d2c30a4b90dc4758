// Compiles after the determinism prelude: deterministic simulated
// code, including near-miss identifiers the poison must not trip on
// (a `time_` prefix member, "rand" inside a word, an ordered map) and
// the one clock the prelude provides.

#include <cstdint>
#include <map>
#include <string>

struct ReplayState {
    std::uint64_t time_budget_cycles = 0;  // not a time() call
    std::map<std::string, int> index;      // ordered: iteration is stable
    double wallSeconds = 0;
};

inline std::uint64_t
advance(ReplayState &st, std::uint64_t cycles)
{
    const auto t0 = uasim::core::WallClock::now();
    const std::string strand = "operand";  // identifiers neither
    st.time_budget_cycles += cycles + strand.size();
    st.wallSeconds += uasim::core::secondsSince(t0);
    return st.time_budget_cycles;
}
