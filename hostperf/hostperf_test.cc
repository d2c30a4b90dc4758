/**
 * @file
 * Tests of the benchmark's own logic: the cell digest's invariance,
 * self-time arithmetic, the tail-percentile rule and the metric-name
 * rule (also applied to every name BENCHMARK.json declares).
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/json.hh"
#include "core/sweep.hh"
#include "perf_core.hh"

namespace fs = std::filesystem;
using namespace uasim;
using hostperf::SpanRecord;

namespace {

/// A small Fig 9 shaped plan: two kernels, Altivec at +0 and the
/// unaligned trace at three latencies, plus one mix-only cell.
core::SweepPlan
smallPlan()
{
    core::SweepPlan plan;
    const std::pair<int, const char *> extras[] = {
        {0, "+0"}, {2, "+2"}, {6, "+6"}};
    for (const auto &[extra, label] : extras) {
        auto cfg = timing::CoreConfig::fourWayOoO();
        cfg.lat.unalignedLoadExtra = extra;
        cfg.lat.unalignedStoreExtra = extra;
        plan.addConfig(label, cfg);
    }
    const core::KernelSpec specs[] = {{h264::KernelId::LumaMc, 8, false},
                                      {h264::KernelId::Sad, 16, false}};
    for (const auto &spec : specs) {
        const int alt = plan.addTrace(
            core::kernelTraceJob(spec, h264::Variant::Altivec, 4, 7));
        const int unal = plan.addTrace(
            core::kernelTraceJob(spec, h264::Variant::Unaligned, 4, 7));
        plan.addCell(alt, 0);
        for (int c = 0; c < 3; ++c)
            plan.addCell(unal, c);
    }
    const int scalar = plan.addTrace(core::kernelTraceJob(
        specs[0], h264::Variant::Scalar, 4, 7));
    plan.addCell(scalar, core::SweepCell::mixOnly);
    return plan;
}

std::string
digestOf(const std::vector<core::SweepCellResult> &cells)
{
    hostperf::CellDigest d;
    for (const auto &c : cells)
        d.add(c.sim, c.mix, c.traceInstrs);
    return d.hex();
}

TEST(CellDigest, SameAcrossThreadsAndStoreState)
{
    const core::SweepPlan plan = smallPlan();
    core::SweepRunner one(1), four(4);
    const std::string ref = digestOf(one.run(plan));
    EXPECT_EQ(digestOf(four.run(plan)), ref);

    const fs::path dir = fs::current_path() / "hostperf_test_store";
    fs::remove_all(dir);
    core::SweepRunner cold(1);
    cold.attachStore(dir.string());
    EXPECT_EQ(digestOf(cold.run(plan)), ref);
    EXPECT_GT(cold.stats().tracesStored, 0u);

    core::SweepRunner warm(4);
    warm.attachStore(dir.string());
    EXPECT_EQ(digestOf(warm.run(plan)), ref);
    EXPECT_EQ(warm.stats().tracesRecorded, 0u);
    fs::remove_all(dir);
}

TEST(CellDigest, SeesEveryCounterAndCellOrder)
{
    timing::SimResult a, b;
    a.cycles = 100;
    b.cycles = 100;
    b.lineCrossings = 1;
    trace::InstrMix mix;
    mix.add(trace::InstrClass::VecPerm, 3);

    hostperf::CellDigest x, y, z;
    x.add(a, mix, 3);
    y.add(b, mix, 3);
    EXPECT_NE(x.value(), y.value());

    x.add(b, mix, 3);
    z.add(b, mix, 3);
    z.add(a, mix, 3);
    EXPECT_NE(x.value(), z.value());
    EXPECT_EQ(x.cells(), 2u);
    EXPECT_EQ(x.hex().size(), 16u);
}

SpanRecord
span(int id, int parent, double start, double end)
{
    SpanRecord s;
    s.name = std::string("s") + std::to_string(id);
    s.id = id;
    s.parent = parent;
    s.start = start;
    s.end = end;
    return s;
}

TEST(SelfTime, NestedAndAdjacentSpans)
{
    // root [0,10] holds adjacent children [1,3) and [3,6); the first
    // child holds a grandchild [1.5,2.5).
    const std::vector<SpanRecord> spans = {
        span(3, 1, 1.5, 2.5), span(1, 0, 1, 3), span(2, 0, 3, 6),
        span(0, -1, 0, 10)};
    const auto self = hostperf::selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 1.0);  // grandchild: a leaf
    EXPECT_DOUBLE_EQ(self[1], 1.0);  // 2 - 1 covered
    EXPECT_DOUBLE_EQ(self[2], 3.0);  // leaf
    EXPECT_DOUBLE_EQ(self[3], 5.0);  // 10 - (2 + 3), adjacency not doubled
}

TEST(SelfTime, OverlappingChildrenCountOnceAndClip)
{
    // Worker spans on two threads overlap inside a pass; one starts
    // before the pass and is clipped to it.
    const std::vector<SpanRecord> spans = {
        span(0, -1, 0, 10), span(1, 0, -1, 6), span(2, 0, 4, 9),
        span(3, 2, 5, 7), span(4, 2, 6, 8)};
    const auto self = hostperf::selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 1.0);  // covered [0,9)
    EXPECT_DOUBLE_EQ(self[1], 7.0);  // no children
    EXPECT_DOUBLE_EQ(self[2], 2.0);  // 5 - union [5,8)
    EXPECT_DOUBLE_EQ(self[3], 2.0);
    EXPECT_DOUBLE_EQ(self[4], 2.0);
}

TEST(SelfTime, RecorderNestsThroughRaiiSpans)
{
    hostperf::SpanRecorder rec;
    {
        hostperf::Span outer(&rec, "outer", -1, 1, 0);
        hostperf::Span inner(&rec, "inner", outer.id(), 1, 0);
    }
    hostperf::Span off(nullptr, "off", -1, 1, 0);
    EXPECT_EQ(off.id(), -1);

    const auto spans = rec.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "inner");  // closes first
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_LE(spans[1].start, spans[0].start);
    EXPECT_GE(spans[1].end, spans[0].end);
    const auto self = hostperf::selfTimes(spans);
    EXPECT_NEAR(self[1], spans[1].duration() - spans[0].duration(), 1e-12);
}

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = double(n - i);  // descending: the rule must sort
    return v;
}

TEST(TailPercentile, HighestWithTenSamplesBeyond)
{
    EXPECT_FALSE(hostperf::tailPercentile(iota(19)));

    auto p = hostperf::tailPercentile(iota(20));
    ASSERT_TRUE(p);
    EXPECT_EQ(p->percentile, 50);
    EXPECT_EQ(p->value, 10);
    EXPECT_EQ(p->samples, 20u);
    EXPECT_EQ(p->beyond, 10u);

    p = hostperf::tailPercentile(iota(99));
    ASSERT_TRUE(p);
    EXPECT_EQ(p->percentile, 50);  // p90 leaves only 9 beyond

    p = hostperf::tailPercentile(iota(100));
    ASSERT_TRUE(p);
    EXPECT_EQ(p->percentile, 90);
    EXPECT_EQ(p->value, 90);
    EXPECT_EQ(p->beyond, 10u);

    p = hostperf::tailPercentile(iota(1000));
    ASSERT_TRUE(p);
    EXPECT_EQ(p->percentile, 99);
    EXPECT_EQ(p->value, 990);

    p = hostperf::tailPercentile(iota(10000));
    ASSERT_TRUE(p);
    EXPECT_EQ(p->percentile, 99.9);
    EXPECT_EQ(p->beyond, 10u);
}

TEST(HostProbe, DeterministicLoopAndPositiveTime)
{
    const std::uint64_t hits = hostperf::probeLoop();
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(hostperf::probeLoop(), hits);
    EXPECT_GT(hostperf::probeSeconds(), 0);
}

TEST(MetricName, CharacterSetAndLength)
{
    for (const char *ok : {"wall_s", "timing.batched_ns_per_sim_cycle",
                           "mem.l1d_misses", "0x-1.a_B"})
        EXPECT_TRUE(hostperf::validMetricName(ok)) << ok;
    for (const char *bad : {"", "_lead", ".lead", "wall s", "cpu/s",
                            "a\"b", "lat\xc3\xa9"})
        EXPECT_FALSE(hostperf::validMetricName(bad)) << bad;
    EXPECT_TRUE(hostperf::validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(hostperf::validMetricName(std::string(65, 'a')));
}

TEST(MetricName, BenchmarkJsonDeclaresValidNames)
{
    std::ifstream in(HOSTPERF_BENCHMARK_JSON);
    ASSERT_TRUE(in) << HOSTPERF_BENCHMARK_JSON;
    std::ostringstream text;
    text << in.rdbuf();
    const json::Value doc = json::parse(text.str());
    std::size_t n = 0;
    for (const char *list : {"workloads", "end_to_end", "per_layer"}) {
        const json::Value *v = doc.asObject().find(list);
        ASSERT_TRUE(v) << list;
        for (const auto &m : v->asArray()) {
            const auto &name = m.asObject().find("name")->asString();
            EXPECT_TRUE(hostperf::validMetricName(name)) << name;
            ++n;
        }
    }
    EXPECT_GT(n, 0u);
}

} // namespace
