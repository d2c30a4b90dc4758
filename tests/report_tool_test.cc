/**
 * @file
 * core/result.hh differ semantics (the uasim-report contract):
 * match / regression / schema-error verdicts and their exit codes,
 * bit-exact gating on simulated fields, and wall-time fields being
 * reported but never gating.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/result.hh"
#include "trace/instr.hh"

using namespace uasim;
using core::BenchResult;
using core::DiffStatus;

namespace {

/// A plausible two-cell artifact.
BenchResult
makeResult()
{
    BenchResult r;
    r.bench = "fig_test";
    r.addParam("quick", json::Value(true));
    r.addParam("execs", json::Value(8));
    r.addMetric("luma16x16/speedup", 1.5);
    r.addMetric("chroma8x8/speedup", 1.0876640419947508);

    core::ResultCell a;
    a.trace = "luma16x16/unaligned/8/12345";
    a.config = "2-way";
    a.traceInstrs = 100000;
    a.sim.core = "2-way";
    a.sim.cycles = 35300;
    a.sim.instrs = 100000;
    a.sim.branches = 5000;
    a.mix.add(trace::InstrClass::VecLoadU, 4000);
    a.mix.add(trace::InstrClass::IntAlu, 96000);
    r.cells.push_back(a);

    core::ResultCell b = a;
    b.config = "4-way";
    b.sim.core = "4-way";
    b.sim.cycles = 18211;
    r.cells.push_back(b);

    core::SweepStats s;
    s.threads = 1;
    s.cellsRun = 2;
    s.instrsReplayed = 200000;
    s.tracesRecorded = 1;
    s.instrsRecorded = 100000;
    s.recordSeconds = 0.25;
    s.wallSeconds = 0.5;
    r.setStats(s);
    return r;
}

} // namespace

TEST(ReportTool, ExitCodes)
{
    EXPECT_EQ(core::exitCode(DiffStatus::Match), 0);
    EXPECT_EQ(core::exitCode(DiffStatus::Regression), 1);
    EXPECT_EQ(core::exitCode(DiffStatus::SchemaError), 2);
    EXPECT_EQ(core::worse(DiffStatus::Match, DiffStatus::Regression),
              DiffStatus::Regression);
    EXPECT_EQ(
        core::worse(DiffStatus::SchemaError, DiffStatus::Regression),
        DiffStatus::SchemaError);
    EXPECT_EQ(core::worse(DiffStatus::Match, DiffStatus::Match),
              DiffStatus::Match);
}

TEST(ReportTool, IdenticalResultsMatch)
{
    const auto diff = core::diffResults(makeResult(), makeResult());
    EXPECT_EQ(diff.status, DiffStatus::Match);
    EXPECT_TRUE(diff.regressions.empty());
}

TEST(ReportTool, SingleCycleDriftIsRegression)
{
    BenchResult cur = makeResult();
    cur.cells[1].sim.cycles += 1;
    const auto diff = core::diffResults(makeResult(), cur);
    EXPECT_EQ(diff.status, DiffStatus::Regression);
    ASSERT_FALSE(diff.regressions.empty());
    EXPECT_NE(diff.regressions[0].find("cycles"), std::string::npos);
}

TEST(ReportTool, MixDriftIsRegression)
{
    BenchResult cur = makeResult();
    cur.cells[0].mix.add(trace::InstrClass::VecPerm, 1);
    EXPECT_EQ(core::diffResults(makeResult(), cur).status,
              DiffStatus::Regression);
}

TEST(ReportTool, MetricBitChangeIsRegression)
{
    BenchResult cur = makeResult();
    // One ulp on a derived metric must gate.
    cur.metrics[1].second =
        std::nextafter(cur.metrics[1].second, 2.0);
    const auto diff = core::diffResults(makeResult(), cur);
    EXPECT_EQ(diff.status, DiffStatus::Regression);
}

TEST(ReportTool, ParamChangeIsRegression)
{
    BenchResult cur = makeResult();
    cur.params[1].second = json::Value(16);
    EXPECT_EQ(core::diffResults(makeResult(), cur).status,
              DiffStatus::Regression);
}

TEST(ReportTool, CellShapeChangeIsRegression)
{
    BenchResult cur = makeResult();
    cur.cells.pop_back();
    EXPECT_EQ(core::diffResults(makeResult(), cur).status,
              DiffStatus::Regression);

    BenchResult relabeled = makeResult();
    relabeled.cells[0].trace = "luma16x16/unaligned/16/12345";
    EXPECT_EQ(core::diffResults(makeResult(), relabeled).status,
              DiffStatus::Regression);
}

TEST(ReportTool, WallTimeFieldsNeverGate)
{
    BenchResult cur = makeResult();
    // A warm 4-thread rerun: all informational fields shift.
    cur.stats.threads = 4;
    cur.stats.tracesRecorded = 0;
    cur.stats.tracesLoaded = 1;
    cur.stats.instrsRecorded = 0;
    cur.stats.instrsLoaded = 100000;
    cur.stats.recordSeconds = 0;
    cur.stats.loadSeconds = 0.01;
    cur.stats.wallSeconds = 0.02;
    const auto diff = core::diffResults(makeResult(), cur);
    EXPECT_EQ(diff.status, DiffStatus::Match);
    // ... but they are surfaced as notes.
    EXPECT_FALSE(diff.notes.empty());
}

TEST(ReportTool, DeterministicSweepFieldsGate)
{
    BenchResult cur = makeResult();
    cur.stats.instrsReplayed += 1;
    EXPECT_EQ(core::diffResults(makeResult(), cur).status,
              DiffStatus::Regression);
}

TEST(ReportTool, BaselineFormComparesAgainstFullForm)
{
    // Committed baselines are stripped of the informational block;
    // a fresh full-form run must still compare clean against them.
    const BenchResult baseline =
        BenchResult::parse(makeResult().serialize(false));
    EXPECT_FALSE(baseline.hasInformational);
    const auto diff = core::diffResults(baseline, makeResult());
    EXPECT_EQ(diff.status, DiffStatus::Match);
}

namespace {

/// makeResult()'s artifact with a retired informational field
/// @p field (already JSON-encoded, trailing comma included) spliced
/// into the informational block, as an older writer produced it.
std::string
withRetiredField(const std::string &field)
{
    std::string old = makeResult().serialize();
    const std::size_t at = old.find("\"replaySeconds\": ");
    EXPECT_NE(at, std::string::npos);
    old.insert(at, field + "\n      ");
    return old;
}

/// A retired informational field loads, is ignored, and never gates.
void
expectRetiredFieldIgnored(const std::string &old)
{
    const BenchResult loaded = BenchResult::parse(old);
    EXPECT_TRUE(loaded.hasInformational);
    EXPECT_EQ(loaded.stats.recordSeconds, 0.25);
    EXPECT_EQ(core::diffResults(makeResult(), loaded).status,
              DiffStatus::Match);
    EXPECT_EQ(loaded.serialize(), makeResult().serialize());
}

} // namespace

TEST(ReportTool, LoadsArtifactCarryingRetiredStreamSeconds)
{
    // Artifacts written before the fused record+simulate pass was
    // retired still carry "streamSeconds".
    expectRetiredFieldIgnored(
        withRetiredField("\"streamSeconds\": 1.25,"));
}

TEST(ReportTool, LoadsArtifactCarryingRetiredBytesMapped)
{
    // Artifacts written while store reads were mmap'd still carry
    // the mapped-byte count.
    expectRetiredFieldIgnored(
        withRetiredField("\"bytesMapped\": 4096,"));
}

TEST(ReportTool, SchemaErrors)
{
    EXPECT_THROW(BenchResult::parse("{\"schema\": nope"),
                 core::SchemaError);
    EXPECT_THROW(core::loadResultFile("/nonexistent/BENCH_x.json"),
                 core::SchemaError);
}

TEST(ReportTool, SaveLoadRoundTrip)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "uasim_report_tool_test";
    fs::create_directories(dir);
    const std::string path = (dir / "BENCH_fig_test.json").string();

    const BenchResult original = makeResult();
    core::saveResultFile(original, path);
    const BenchResult loaded = core::loadResultFile(path);
    EXPECT_EQ(core::diffResults(original, loaded).status,
              DiffStatus::Match);
    EXPECT_EQ(loaded.serialize(), original.serialize());

    fs::remove_all(dir);
}

TEST(ReportTool, DuplicateMetricOrParamNameThrows)
{
    BenchResult r = makeResult();
    r.addMetric("luma16x16/speedup", 2.0);
    EXPECT_THROW(r.serialize(), std::logic_error);

    BenchResult p = makeResult();
    p.addParam("quick", json::Value(false));
    EXPECT_THROW(p.serialize(), std::logic_error);
}
