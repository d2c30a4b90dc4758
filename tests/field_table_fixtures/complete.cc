// Compiles: both field-table shapes the artifact code uses, each
// complete. Counters mirrors timing::SimResult (uniform counter rows,
// one string member handled by hand); Stats mirrors core::SweepStats
// (rows over members of three types).

#include <cstdint>
#include <string>
#include <variant>

#include "core/field_table.hh"

using uasim::core::coversEveryMember;

struct Counters {
    std::string core;
    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;

    double ipc() const { return cycles ? 1.0 : 0.0; }
};

struct CounterField {
    const char *name;
    std::uint64_t Counters::*member;
};

constexpr CounterField counterFields[] = {
    {"cycles", &Counters::cycles},
    {"instrs", &Counters::instrs},
};

static_assert(coversEveryMember<Counters, counterFields, 1>());

struct Stats {
    int threads = 0;
    std::uint64_t cellsRun = 0;
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
