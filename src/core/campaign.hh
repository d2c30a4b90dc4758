/**
 * @file
 * Declarative sweep campaigns: the data front door to the sweep
 * engine (ROADMAP item 2).
 *
 * A campaign file describes a whole figure-style experiment grid as
 * data instead of a hardcoded bench loop: an INI-style sectioned
 * format (the esesc simu.conf / graphite carbon_sim.cfg family) with
 * axis value lists and `$(name)`-style derived integer expressions
 * (`mw = $(iw)/4`). Parsing expands it deterministically into the
 * same record-once/replay-many grid the benches build by hand:
 *
 *     [campaign]              identity + workload scale
 *     name = fig9_ci
 *     execs = 8
 *     seed = 12345
 *
 *     [values]                derived parameters ($(ref), + - * /)
 *     iw = 4
 *     mw = $(iw)/4
 *
 *     [workload]              trace axis: kernels x variants
 *     kernels = luma16x16, sad16x16      (or "paper" for the grid)
 *     variants = unaligned
 *
 *     [core]                  base preset + fixed field overrides
 *     base = 4w
 *     lat.unalignedStoreExtra = 2*$(mw)
 *
 *     [axes]                  swept CoreConfig fields (cross product)
 *     model = pipeline, ooo
 *     lat.unalignedLoadExtra = 0, 1, 2
 *
 * Every expanded configuration is checked through
 * timing::CoreConfig::validate() and the timing-model registry at
 * parse time, so a malformed campaign fails before any simulation.
 *
 * Identity is content-addressed: canonical() renders the campaign in
 * a normalized form (fixed section order, expressions resolved, the
 * [values] scaffolding dropped - comments and derivation spelling do
 * not change identity) and contentHash() is the FNV-1a of those
 * bytes. The hash names the campaign (id()) and addresses its chunks.
 *
 * Execution model: the grid partitions into *chunks* - one chunk per
 * trace, covering that trace's full config row - and chunks partition
 * round-robin across shards (chunk j belongs to shard j % N), so any
 * shard's work is a pure function of (campaign, i, N). Each executed
 * chunk publishes a content-hash-addressed chunk artifact; a
 * re-invocation skips published chunks, which is what makes an
 * interrupted campaign resume instead of restart. Shard artifacts
 * merge (mergeShardResults / `uasim-report merge`) into one canonical
 * BENCH_<name>.json whose simulated fields are bit-identical to an
 * unsharded single-process run - the load-bearing property, enforced
 * by tests/campaign_test.cc and the campaign_merge_parity ctest
 * entry.
 */

#ifndef UASIM_CORE_CAMPAIGN_HH
#define UASIM_CORE_CAMPAIGN_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hh"
#include "core/result.hh"
#include "core/sweep.hh"
#include "h264/kernels.hh"
#include "timing/config.hh"

namespace uasim::core {

/// Malformed campaign file, invalid expansion, or a merge rejection.
class CampaignError : public std::runtime_error
{
  public:
    explicit CampaignError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * Evaluate one integer campaign expression: decimal literals,
 * `$(name)` references into @p values, `+ - * /` with the usual
 * precedence, parentheses, and unary minus. Division truncates
 * toward zero like C.
 * @throws CampaignError on syntax errors, undefined references, or
 *         division by zero.
 */
long long evalCampaignExpr(std::string_view expr,
                           const std::map<std::string, long long> &values);

/// The CoreConfig fields a campaign [core] override or [axes] entry
/// may set, by dotted name ("fetchWidth", "lat.unalignedLoadExtra",
/// "mem.memBWBytesPerCycle", ...). Sorted for stable docs/tests.
const std::vector<std::string> &campaignCoreFields();

/// Set @p field on @p cfg. @return false for an unknown field name.
bool setCampaignCoreField(timing::CoreConfig &cfg,
                          const std::string &field, long long value);

/// One swept axis: a CoreConfig field (integer values) or the special
/// "model" axis (timing-backend names).
struct CampaignAxis {
    std::string field;
    std::vector<long long> values;   //!< numeric axes (empty for model)
    std::vector<std::string> names;  //!< "model" axis backend names
};

/// One parsed, validated, expanded campaign.
class Campaign
{
  public:
    /// Parse campaign text. @throws CampaignError with a line-number
    /// diagnostic on any malformed input or invalid expansion.
    static Campaign parse(std::string_view text);

    /// Read and parse one campaign file. @throws CampaignError.
    static Campaign load(const std::string &path);

    const std::string &name() const { return name_; }
    int execs() const { return execs_; }
    std::uint64_t seed() const { return seed_; }

    /// The kernel/variant trace axis, in declaration order.
    const std::vector<KernelSpec> &kernels() const { return kernels_; }
    const std::vector<h264::Variant> &variants() const
    {
        return variants_;
    }
    const std::vector<CampaignAxis> &axes() const { return axes_; }

    /**
     * The normalized campaign text: fixed section order, expressions
     * resolved, comments and the [values] section dropped. Two files
     * that expand to the same grid canonicalize to the same bytes;
     * parse(canonical()) round-trips.
     */
    std::string canonical() const;

    /// FNV-1a 64 over canonical() - the campaign's content identity.
    std::uint64_t contentHash() const;

    /// contentHash() as 16 lowercase hex digits.
    std::string contentHashHex() const;

    /// "<name>-<hash16>": the content-addressed campaign id.
    std::string id() const;

    /// @name Expanded grid
    /// @{
    /// Chunks == traces: one per kernel x variant, declaration order.
    int chunkCount() const
    {
        return int(kernels_.size() * variants_.size());
    }
    /// Configurations: cross product of the axes over the base core.
    int configCount() const { return int(configs_.size()); }
    const std::vector<ConfigJob> &configs() const { return configs_; }

    /// Trace-cache key of chunk @p chunk (the kernelTraceJob key).
    std::string chunkTraceKey(int chunk) const;

    /// Content hash addressing chunk @p chunk: a function of the
    /// campaign hash, the chunk index, and its trace key, so any
    /// campaign edit retires every published chunk artifact.
    std::uint64_t chunkHash(int chunk) const;

    /// "chunk-<hash16>.json": the published chunk artifact name.
    std::string chunkFileName(int chunk) const;

    /**
     * The chunk indices of shard @p shard of @p shardCount, ascending
     * (chunk j belongs to shard j % shardCount). Together the shards
     * cover every chunk exactly once (tests/campaign_test.cc locks
     * completeness and disjointness).
     * @throws CampaignError on an invalid shard spec.
     */
    static std::vector<int> shardChunks(int chunkCount, int shard,
                                        int shardCount);

    /**
     * SweepPlan over @p chunks (ascending chunk indices): every
     * listed trace crossed with the full config row, cells
     * chunk-major in the given order - the exact cell layout the
     * whole-grid plan has for those chunks.
     */
    SweepPlan buildPlan(const std::vector<int> &chunks) const;
    /// @}

  private:
    Campaign() = default;

    std::string name_;
    int execs_ = 0;
    std::uint64_t seed_ = 12345;
    std::string base_ = "4w";
    std::string fixedModel_;  //!< [core] model override; empty = default
    /// [core] field overrides in declaration order (resolved values).
    std::vector<std::pair<std::string, long long>> overrides_;
    std::vector<KernelSpec> kernels_;
    std::vector<h264::Variant> variants_;
    std::vector<CampaignAxis> axes_;
    std::vector<ConfigJob> configs_;  //!< expanded at parse time
};

/// How one invocation of the campaign driver executes.
struct CampaignRunOptions {
    /// When false, the run is the unsharded single-process form and
    /// writes the canonical BENCH_<name>.json directly; when true it
    /// runs shard/shardCount and writes
    /// BENCH_<name>.shard<i>of<N>.json for `uasim-report merge`.
    bool sharded = false;
    int shard = 0;
    int shardCount = 1;
    std::string jsonDir;  //!< artifact directory (required)
    int threads = 0;      //!< SweepRunner worker count (0 = hardware)
    std::string traceCache;  //!< persistent trace store dir; empty = none
};

/// Per-chunk outcome of one driver invocation.
struct CampaignChunkStatus {
    int chunk = 0;
    std::string file;     //!< chunk artifact file name
    bool skipped = false; //!< served from a published chunk artifact
};

struct CampaignRunOutcome {
    BenchResult artifact;      //!< the shard (or final) artifact
    std::string artifactPath;  //!< where it was written
    std::string chunkDir;      //!< the chunk artifact directory
    std::vector<CampaignChunkStatus> chunks;  //!< ascending chunk order
    int executed = 0;
    int skipped = 0;
};

/**
 * Execute one shard of @p campaign: probe the chunk directory under
 * @p opt.jsonDir for published chunk artifacts (skipping every chunk
 * whose content-hash-named artifact validates), run the remaining
 * chunks through one SweepRunner pass, publish their chunk artifacts,
 * and write the shard (or, unsharded, the canonical) BENCH artifact.
 * Simulated fields of the assembled artifact are independent of which
 * chunks were resumed vs executed.
 * @throws CampaignError / std::runtime_error on unusable options or
 *         I/O failure.
 */
CampaignRunOutcome runCampaignShard(const Campaign &campaign,
                                    const CampaignRunOptions &opt);

/**
 * Combine the partial shard artifacts of one campaign into the
 * canonical merged BenchResult - bit-identical in every simulated
 * field to the unsharded single-process run. Rejects (CampaignError)
 * duplicate/missing shards, mismatched campaign identity or grid
 * shape, wrong per-shard cell counts, and inputs that are not shard
 * artifacts.
 */
BenchResult mergeShardResults(const std::vector<BenchResult> &shards);

} // namespace uasim::core

#endif // UASIM_CORE_CAMPAIGN_HH
