// Must not compile: each struct has a member with no table row
// (`ghostCounter`, `lostStat`). Without the check, such a member
// would never be serialized and never gate a diff.

#include <cstdint>
#include <string>
#include <variant>

#include "core/field_table.hh"

using uasim::core::coversEveryMember;

struct Counters {
    std::string core;
    std::uint64_t cycles = 0;
    std::uint64_t ghostCounter = 0;
};

struct CounterField {
    const char *name;
    std::uint64_t Counters::*member;
};

constexpr CounterField counterFields[] = {
    {"cycles", &Counters::cycles},
};

static_assert(coversEveryMember<Counters, counterFields, 1>());

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
    {"wallSeconds", &Stats::wallSeconds},
};

static_assert(coversEveryMember<Stats, statsFields>());
