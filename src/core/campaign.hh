/**
 * @file
 * Declarative sweep campaigns: the data front door to the sweep
 * engine (ROADMAP item 2).
 *
 * A campaign file describes a whole figure-style experiment grid as
 * data instead of a hardcoded bench loop: an INI-style sectioned
 * format (the esesc simu.conf / graphite carbon_sim.cfg family) with
 * literal axis value lists. Every integer is a plain decimal literal
 * (an optional '-' and digits, range-checked). Parsing expands the
 * file deterministically into the same record-once/replay-many grid
 * the benches build by hand:
 *
 *     [campaign]              identity + workload scale
 *     name = fig9_ci
 *     execs = 8
 *     seed = 12345
 *
 *     [workload]              trace axis: kernels x variants
 *     kernels = luma16x16, sad16x16      (or "paper" for the grid)
 *     variants = unaligned
 *
 *     [core]                  base preset + fixed field overrides
 *     base = 4w
 *     lat.unalignedStoreExtra = 2
 *
 *     [axes]                  swept CoreConfig fields (cross product)
 *     model = pipeline, ooo
 *     lat.unalignedLoadExtra = 0, 1, 2
 *
 * Every [core] override and [axes] key is a row of the core field
 * table, timing::coreConfigFields(): a named row's values (model)
 * are its names, any other row's are integers. Every expanded
 * configuration is checked through timing::CoreConfig::validate() at
 * parse time, so a malformed campaign fails before any simulation.
 *
 * Identity is content-addressed: canonical() renders the campaign in
 * a normalized form (fixed section order and spacing - comments and
 * layout do not change identity) and contentHash() is the FNV-1a of
 * those bytes. The hash names the campaign (id()) and addresses its
 * chunks.
 *
 * Execution model: the grid partitions into *chunks* - one chunk per
 * trace, covering that trace's full config row - and chunks partition
 * round-robin across shards (chunk j belongs to shard j % N), so any
 * shard's work is a pure function of (campaign, i, N). Each chunk
 * publishes a content-hash-addressed chunk artifact the moment its
 * trace group completes; a re-invocation skips published chunks,
 * which is what makes an interrupted campaign resume instead of
 * restart. A shard of N > 1 only publishes chunks. The campaign
 * artifact BENCH_<name>.json is always assembled by a run covering
 * every chunk (shard 0 of 1), which executes whatever is not yet
 * published - so merging shards is running that assembly over one
 * chunk directory (shared, or the union of copied ones). Its
 * simulated fields are bit-identical however the chunks were split
 * or resumed - the load-bearing property, enforced by
 * tests/campaign_test.cc.
 */

#ifndef UASIM_CORE_CAMPAIGN_HH
#define UASIM_CORE_CAMPAIGN_HH

#include <cstdint>
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

/// Malformed campaign file, invalid expansion, or bad run options.
class CampaignError : public std::runtime_error
{
  public:
    explicit CampaignError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/// One swept axis: a core field table row and its values in
/// declaration order (a named row's values are indices into its names).
struct CampaignAxis {
    const timing::CoreConfigField *field;
    std::vector<long long> values;
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

    /**
     * The normalized campaign text: fixed section order and spacing,
     * comments dropped. Two files that expand to the same grid
     * canonicalize to the same bytes; parse(canonical()) round-trips.
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
    /// [core] field overrides in declaration order (values as in
    /// CampaignAxis).
    std::vector<std::pair<const timing::CoreConfigField *, long long>>
        overrides_;
    /// The kernel/variant trace axis, in declaration order.
    std::vector<KernelSpec> kernels_;
    std::vector<h264::Variant> variants_;
    std::vector<CampaignAxis> axes_;
    std::vector<ConfigJob> configs_;  //!< expanded at parse time
};

/// How one invocation of the campaign driver executes.
struct CampaignRunOptions {
    /// Run shard @c shard of @c shardCount. Shard 0 of 1 (the
    /// default) covers every chunk and writes BENCH_<name>.json; a
    /// shard of more only publishes its chunk artifacts.
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
    /// The assembled campaign artifact and where it was written; empty
    /// for a shard of more than one.
    BenchResult artifact;
    std::string artifactPath;
    std::string chunkDir;      //!< the chunk artifact directory
    std::vector<CampaignChunkStatus> chunks;  //!< ascending chunk order
    int executed = 0;
    int skipped = 0;
};

/**
 * Execute one shard of @p campaign: probe the chunk directory under
 * @p opt.jsonDir for published chunk artifacts (skipping every chunk
 * whose content-hash-named artifact validates), run the remaining
 * chunks through one SweepRunner pass, publishing each chunk's
 * artifact as soon as its trace group completes. A run covering every
 * chunk then assembles and writes BENCH_<name>.json; its simulated
 * fields are independent of which chunks were resumed vs executed.
 * @throws CampaignError / std::runtime_error on unusable options or
 *         I/O failure.
 */
CampaignRunOutcome runCampaignShard(const Campaign &campaign,
                                    const CampaignRunOptions &opt);

} // namespace uasim::core

#endif // UASIM_CORE_CAMPAIGN_HH
