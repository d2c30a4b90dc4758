/**
 * @file
 * Analytic envelopes over the committed baselines: bounds computed
 * from the artifacts alone, in code that shares nothing with the
 * timing engine or its oracles (this binary links no simulator; it
 * only parses BENCH_*.json through core::BenchResult).
 *
 * Fig 9 slope bound. Two cells of one trace (and, in fig9_ci, one
 * model) that differ only in the unaligned-access extra latency, by
 * k cycles, must satisfy
 *
 *     0 <= cycles(+k) - cycles(+0) <= k * unalignedVecOps(+0):
 *
 * a slower alignment network never speeds a kernel up, and it can
 * cost at most k cycles per dynamically unaligned vector access, the
 * per-class latency reasoning of interval analysis. A violation is an
 * engine finding: fix the engine, never loosen the bound or drop
 * pairs.
 *
 * Throughput lower bound. A Table II core fetches at most fetchWidth
 * instructions and issues at most units.ls load/store-class ops per
 * cycle, so every cell simulated on a preset must satisfy
 *
 *     cycles * fetchWidth >= instrs,  cycles * units.ls >= LS ops,
 *
 * the per-class throughput reasoning of interval analysis. A
 * violation is an engine bug.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/result.hh"

using namespace uasim;

namespace {

/// A cell's place on the latency axis: its extra latency k and the
/// rest of its config label, which names its pairing group.
struct LatencyPoint {
    int k = -1;  //!< -1: the label names no unaligned latency
    std::string rest;
};

/**
 * Parse a fig9 config label: "+<k>cyc" (fig9_latency_sensitivity,
 * load and store extra both k) or a campaign label of comma-separated
 * "field=value" pairs with a "lat.unalignedLoadExtra=<k>" entry
 * (fig9_ci).
 */
LatencyPoint
latencyPoint(const std::string &label)
{
    LatencyPoint p;
    if (label.size() > 4 && label.front() == '+' &&
        label.ends_with("cyc")) {
        p.k = std::atoi(label.substr(1, label.size() - 4).c_str());
        return p;
    }
    const std::string key = "lat.unalignedLoadExtra=";
    std::size_t at = 0;
    while (at <= label.size()) {
        std::size_t end = label.find(',', at);
        if (end == std::string::npos)
            end = label.size();
        const std::string part = label.substr(at, end - at);
        if (part.starts_with(key))
            p.k = std::atoi(part.c_str() + key.size());
        else
            p.rest += part + ",";
        at = end + 1;
    }
    return p;
}

struct Envelope {
    std::size_t pairs = 0;
    double worstRatio = 0;  //!< max (cycles(+k) - cycles(+0)) / bound
};

/// Check the slope bound on every (+0, +k) pair of @p file.
Envelope
checkSlopeBound(const std::string &file)
{
    const core::BenchResult art = core::loadResultFile(
        std::string(UASIM_BASELINES_DIR) + "/" + file);
    // (trace, rest of label) -> cells by k.
    std::map<std::string, std::map<int, const core::ResultCell *>> groups;
    for (const auto &cell : art.cells) {
        const LatencyPoint p = latencyPoint(cell.config);
        EXPECT_GE(p.k, 0) << file << ": " << cell.config;
        if (p.k < 0)
            continue;
        const bool fresh = groups[cell.trace + "|" + p.rest]
                               .try_emplace(p.k, &cell)
                               .second;
        EXPECT_TRUE(fresh) << file << ": two cells at " << cell.trace
                           << " " << cell.config;
    }
    Envelope env;
    for (const auto &[group, byK] : groups) {
        const auto base = byK.find(0);
        EXPECT_NE(base, byK.end())
            << file << ": no +0 cell in " << group;
        if (base == byK.end())
            continue;
        const timing::SimResult &s0 = base->second->sim;
        for (const auto &[k, cell] : byK) {
            if (k == 0)
                continue;
            const timing::SimResult &sk = cell->sim;
            const std::string where =
                file + ": " + cell->trace + " " + cell->config;
            // Stream-pure: the latency changes timing, not the stream.
            EXPECT_EQ(sk.unalignedVecOps, s0.unalignedVecOps) << where;
            EXPECT_GE(sk.cycles, s0.cycles) << where;
            const std::uint64_t bound =
                std::uint64_t(k) * s0.unalignedVecOps;
            EXPECT_LE(sk.cycles - s0.cycles, bound) << where;
            if (bound > 0 && sk.cycles >= s0.cycles)
                env.worstRatio = std::max(
                    env.worstRatio,
                    double(sk.cycles - s0.cycles) / double(bound));
            ++env.pairs;
        }
    }
    return env;
}

/// The throughput-bearing widths of one Table II preset, written out
/// here so the bound shares no code with the engine's config.
struct PresetWidths {
    const char *core;
    int fetchWidth;
    int lsUnits;
};

constexpr PresetWidths presetWidths[] = {
    {"2w", 2, 1},
    {"4w", 4, 2},
    {"8w", 8, 4},
};

/// Load/store-class ops of @p mix: every class the LS unit issues.
std::uint64_t
lsOps(const trace::InstrMix &mix)
{
    using IC = trace::InstrClass;
    std::uint64_t n = 0;
    for (IC cls : {IC::Load, IC::Store, IC::VecLoad, IC::VecStore,
                   IC::VecLoadU, IC::VecStoreU})
        n += mix.count(cls);
    return n;
}

/// Every committed baseline artifact, sorted by path.
std::vector<std::string>
baselineFiles()
{
    std::vector<std::string> out;
    for (const auto &e :
         std::filesystem::directory_iterator(UASIM_BASELINES_DIR)) {
        const std::string name = e.path().filename().string();
        if (name.starts_with("BENCH_") && name.ends_with(".json"))
            out.push_back(e.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

TEST(ThroughputEnvelope, LowerBoundOnCommittedPresetCells)
{
    std::size_t cells = 0;
    double worstFetch = 0;  //!< max instrs / (cycles * fetchWidth)
    double worstLs = 0;     //!< max LS ops / (cycles * units.ls)
    for (const std::string &path : baselineFiles()) {
        const core::BenchResult art = core::loadResultFile(path);
        for (const auto &cell : art.cells) {
            const PresetWidths *w = nullptr;
            for (const auto &p : presetWidths) {
                if (cell.sim.core == p.core)
                    w = &p;
            }
            if (!w)
                continue;  // mix-only, or a swept core (fig9_ci)
            const timing::SimResult &s = cell.sim;
            const std::string where =
                path + ": " + cell.trace + " " + cell.config;
            ASSERT_GT(s.cycles, 0u) << where;
            const std::uint64_t ls = lsOps(cell.mix);
            EXPECT_GE(s.cycles * std::uint64_t(w->fetchWidth), s.instrs)
                << where;
            EXPECT_GE(s.cycles * std::uint64_t(w->lsUnits), ls) << where;
            worstFetch = std::max(
                worstFetch,
                double(s.instrs) / double(s.cycles * w->fetchWidth));
            worstLs = std::max(
                worstLs, double(ls) / double(s.cycles * w->lsUnits));
            ++cells;
        }
    }
    // ablation 21, fig10 168, fig8 99, fig9 and its .ooo 132, the
    // membw sweep and its .ooo 176, table1 7. A smaller count means
    // cells went missing.
    EXPECT_EQ(cells, 603u);
    std::printf("%zu preset cells, worst fetch ratio %.3f, worst LS "
                "ratio %.3f\n",
                cells, worstFetch, worstLs);
}

TEST(Fig9Envelope, SlopeBoundOnCommittedBaselines)
{
    // Every latency pair of each artifact: 11 unaligned traces x 4
    // extra latencies per Fig 9 backend, and 3 traces x 2 models x 2
    // latencies in fig9_ci. A smaller count means pairs went missing.
    const struct {
        const char *file;
        std::size_t pairs;
    } artifacts[] = {
        {"BENCH_fig9_latency_sensitivity.json", 44},
        {"BENCH_fig9_latency_sensitivity.ooo.json", 44},
        {"BENCH_fig9_ci.json", 12},
    };
    for (const auto &a : artifacts) {
        const Envelope env = checkSlopeBound(a.file);
        EXPECT_EQ(env.pairs, a.pairs) << a.file;
        std::printf("%s: %zu pairs, worst slope ratio %.3f\n", a.file,
                    env.pairs, env.worstRatio);
    }
}
