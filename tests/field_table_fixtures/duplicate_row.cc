// Must not compile: `cellsRun` has two rows and `lostStat` none, so
// the row count still equals the member count. Only the
// distinct-members check catches this.

#include <cstdint>
#include <variant>

#include "core/field_table.hh"

using uasim::core::coversEveryMember;

struct Stats {
    int threads = 0;
    std::uint64_t cellsRun = 0;
    std::uint64_t lostStat = 0;
    double wallSeconds = 0;
};

struct StatsField {
    const char *name;
    std::variant<int Stats::*, std::uint64_t Stats::*, double Stats::*>
        member;
};

constexpr StatsField statsFields[] = {
    {"threads", &Stats::threads},
    {"cellsRun", &Stats::cellsRun},
    {"lostStat", &Stats::cellsRun},
    {"wallSeconds", &Stats::wallSeconds},
};

static_assert(coversEveryMember<Stats, statsFields>());
