/**
 * @file
 * Versioned machine-readable bench results (the BENCH_*.json
 * artifacts) and the regression differ behind the uasim-report tool.
 *
 * A BenchResult captures everything a figure/table bench measured:
 * the workload parameters, every sweep cell (trace key, config label,
 * the full SimResult counter block, and the per-class instruction
 * mix), the derived headline metrics exactly as printed in the text
 * table, and the SweepStats of the run.
 *
 * Fields are split into two strictly separated groups:
 *
 *  - **simulated** fields (params, metrics, cells, and the
 *    deterministic SweepStats subset cellsRun/instrsReplayed) are
 *    products of the deterministic simulator. They must be
 *    bit-identical across hosts, thread counts, and cold/warm trace
 *    caches, and uasim-report gates on them bit-exactly.
 *  - **informational** fields (thread count, store hit/record
 *    counters, all wall-clock seconds) describe how the run executed.
 *    They are reported in diffs but never gate.
 *
 * Schema versioning: `schemaVersion` starts at 1 and must be bumped
 * whenever a simulated field is added, removed, renamed, or changes
 * meaning (informational additions do not require a bump). The differ
 * refuses to compare artifacts of different versions (SchemaError)
 * instead of producing a bogus regression verdict.
 */

#ifndef UASIM_CORE_RESULT_HH
#define UASIM_CORE_RESULT_HH

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/json.hh"
#include "core/sweep.hh"
#include "timing/results.hh"
#include "trace/mix.hh"

namespace uasim::core {

/// Artifact is syntactically JSON but not a valid BenchResult.
class SchemaError : public std::runtime_error
{
  public:
    explicit SchemaError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/// One row of the SimResult counter table (see simResultFields()).
struct SimResultField {
    const char *name;
    std::uint64_t timing::SimResult::*member;
};

/**
 * The one SimResult counter table: artifact serialization, parsing,
 * diff gating, and the batched-vs-oracle differential tests all
 * iterate this list, so a future counter added here is automatically
 * carried by the artifact, gated by uasim-report, AND compared between
 * the production pipeline engine and its test oracle — it cannot
 * serialize yet silently never gate, nor be modeled in the PipelineSim
 * oracle but forgotten in BatchedPipelineSim.
 * (Adding one is a simulated-schema change: bump
 * BenchResult::schemaVersion.)
 */
std::span<const SimResultField> simResultFields();

/// One sweep cell of the artifact (== one SweepCellResult).
struct ResultCell {
    std::string trace;        //!< trace job key
    std::string config;       //!< config label; empty for mix-only
    std::uint64_t traceInstrs = 0;
    timing::SimResult sim;    //!< zeroed for mix-only cells
    trace::InstrMix mix;
};

/**
 * The in-memory model of one BENCH_*.json artifact.
 */
class BenchResult
{
  public:
    static constexpr const char *schemaName = "uasim-bench-result";
    static constexpr int schemaVersion = 1;

    std::string bench;  //!< bench binary name, e.g. "fig8_kernel_speedup"

    /// Workload parameters (ordered; values are typed JSON scalars).
    std::vector<std::pair<std::string, json::Value>> params;

    /**
     * Derived headline metrics: the numbers the text table prints,
     * one entry per table value, keyed "row/column" style. Doubles
     * are compared bit-exactly by the differ, which is sound because
     * they are pure functions of simulated counters.
     */
    std::vector<std::pair<std::string, double>> metrics;

    std::vector<ResultCell> cells;

    SweepStats stats;        //!< most recent SweepRunner stats
    bool hasStats = false;   //!< false for benches without a sweep
    /// False when the artifact was written in baseline form (the
    /// informational stats block stripped).
    bool hasInformational = false;

    /// @name Builders
    /// @{
    void addParam(const std::string &name, json::Value v);
    void addMetric(const std::string &name, double v);

    /// Append every sweep cell result verbatim.
    void addCells(const std::vector<SweepCellResult> &results);

    /// Record the runner statistics block.
    void setStats(const SweepStats &s);
    /// @}

    /**
     * Serialize to the artifact JSON.
     * @param includeInformational when false (baseline form) the
     *        informational SweepStats block is omitted entirely, so
     *        committed baselines never churn on wall-clock noise.
     */
    json::Value toJson(bool includeInformational = true) const;

    /// Serialized artifact text (pretty-printed, trailing newline).
    std::string
    serialize(bool includeInformational = true) const
    {
        return toJson(includeInformational).dump(2);
    }

    /**
     * Parse an artifact.
     * @throws SchemaError on missing/mistyped fields or an
     *         unsupported schema name/version.
     */
    static BenchResult fromJson(const json::Value &v);

    /// Parse artifact text. @throws SchemaError (also for bad JSON).
    static BenchResult parse(std::string_view text);
};

/// Read and parse one artifact file. @throws SchemaError.
BenchResult loadResultFile(const std::string &path);

/// Write @p result to @p path (atomically via tmp+rename).
/// @throws std::runtime_error on I/O failure.
void saveResultFile(const BenchResult &result, const std::string &path,
                    bool includeInformational = true);

/// Outcome of one artifact comparison, ordered by severity.
enum class DiffStatus { Match = 0, Regression = 1, SchemaError = 2 };

/// Process exit code for a status (uasim-report's contract).
constexpr int
exitCode(DiffStatus s)
{
    return static_cast<int>(s);
}

/// The worse of two statuses (SchemaError > Regression > Match).
constexpr DiffStatus
worse(DiffStatus a, DiffStatus b)
{
    return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

/// One artifact-pair comparison: verdict plus human-readable detail.
struct DiffReport {
    DiffStatus status = DiffStatus::Match;
    /// Gating differences (simulated fields), one line each.
    std::vector<std::string> regressions;
    /// Non-gating observations (wall-time deltas etc.), one line each.
    std::vector<std::string> notes;
};

/**
 * Compare two artifacts: @p base (the committed baseline) against
 * @p cur (the fresh run). Simulated fields are compared bit-exactly;
 * informational fields only produce notes. Artifacts for different
 * benches or parameters are a Regression (the run no longer measures
 * what the baseline recorded).
 */
DiffReport diffResults(const BenchResult &base, const BenchResult &cur);

} // namespace uasim::core

#endif // UASIM_CORE_RESULT_HH
