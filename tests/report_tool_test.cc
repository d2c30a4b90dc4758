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
#include <set>
#include <string>
#include <type_traits>
#include <variant>

#include "core/result.hh"
#include "file_size_limit.hh"
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

namespace {

/// @p text with the line carrying key @p key replaced by @p line, or
/// removed (with the comma before it when it closed its object) when
/// @p line is empty.
std::string
withKeyLine(std::string text, const std::string &key,
            const std::string &line)
{
    const std::size_t at = text.find("\"" + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t begin = text.rfind('\n', at) + 1;
    const std::size_t end = text.find('\n', at) + 1;
    text.replace(begin, end - begin, line.empty() ? "" : line + "\n");
    if (line.empty() && text[text.find_first_not_of(' ', begin)] == '}')
        text.erase(begin - 2, 1);
    return text;
}

} // namespace

TEST(ReportTool, EverySweepStatsFieldRoundTrips)
{
    // Every field of the table set to a distinct non-zero value.
    BenchResult full = makeResult();
    const auto fields = core::sweepStatsFields();
    for (std::size_t i = 0; i < fields.size(); ++i) {
        std::visit(
            [&](auto m) {
                auto &field = full.stats.*m;
                using T = std::remove_reference_t<decltype(field)>;
                if constexpr (std::is_floating_point_v<T>)
                    field = T(i) + 0.25;
                else
                    field = T((i + 1) * 1000 + i);
            },
            fields[i].member);
    }
    auto equal = [](const core::SweepStats &a, const core::SweepStats &b,
                    const core::SweepStatsField &f) {
        return std::visit([&](auto m) { return a.*m == b.*m; },
                          f.member);
    };
    const core::SweepStats zero{};

    // The full form round-trips every field exactly.
    const BenchResult loaded = BenchResult::parse(full.serialize());
    for (const core::SweepStatsField &f : fields)
        EXPECT_TRUE(equal(loaded.stats, full.stats, f)) << f.name;
    EXPECT_EQ(loaded.serialize(), full.serialize());

    // The baseline form keeps only the gating fields.
    const BenchResult baseline =
        BenchResult::parse(full.serialize(false));
    int gating = 0;
    for (const core::SweepStatsField &f : fields) {
        gating += f.gating;
        EXPECT_TRUE(equal(baseline.stats, f.gating ? full.stats : zero, f))
            << f.name;
    }
    EXPECT_EQ(gating, 2);
    EXPECT_EQ(fields[0].name, std::string("cellsRun"));
    EXPECT_EQ(fields[1].name, std::string("instrsReplayed"));

    // Removing a required key is a SchemaError; an optional key
    // (added after schemaVersion 1 artifacts existed) loads as 0.
    const std::string text = full.serialize();
    const std::set<std::string> required = {
        "cellsRun",       "instrsReplayed", "threads",
        "tracesRecorded", "tracesLoaded",   "tracesStored",
        "instrsRecorded", "instrsLoaded",   "recordSeconds",
        "replaySeconds",  "loadSeconds",    "wallSeconds"};
    for (const core::SweepStatsField &f : fields) {
        const std::string without = withKeyLine(text, f.name, "");
        if (required.count(f.name)) {
            try {
                BenchResult::parse(without);
                ADD_FAILURE() << f.name << " removed: loaded";
            } catch (const core::SchemaError &e) {
                EXPECT_NE(std::string(e.what()).find(
                              std::string("missing field \"") + f.name),
                          std::string::npos)
                    << e.what();
            }
            continue;
        }
        const BenchResult partial = BenchResult::parse(without);
        for (const core::SweepStatsField &g : fields) {
            EXPECT_TRUE(equal(partial.stats, &g == &f ? zero : full.stats,
                              g))
                << f.name << " removed, " << g.name;
        }
    }

    // threads is an int: a value above INT_MAX is a SchemaError, not
    // a truncated int.
    EXPECT_EQ(BenchResult::parse(withKeyLine(text, "threads",
                                             "\"threads\": 2147483647,"))
                  .stats.threads,
              2147483647);
    for (const char *big : {"2147483648", "4294967297"}) {
        EXPECT_THROW(BenchResult::parse(withKeyLine(
                         text, "threads",
                         std::string("\"threads\": ") + big + ",")),
                     core::SchemaError)
            << big;
    }
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

TEST(ReportTool, FailedSaveLeavesNoFile)
{
    // A write that fails publishes nothing: no artifact, and no
    // temporary file beside where it would have been.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "uasim_report_tool_failed_save";
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
        FileSizeLimit full;
        ASSERT_TRUE(full.active());
        EXPECT_THROW(
            core::saveResultFile(makeResult(),
                                 (dir / "BENCH_fig_test.json").string()),
            std::runtime_error);
    }
    EXPECT_TRUE(fs::is_empty(dir));
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
