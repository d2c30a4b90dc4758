/**
 * @file
 * Fig 10 cost model: full-decoder per-stage time estimates.
 *
 * The paper estimates whole-application impact from profiling; we do
 * the same composition explicitly: the functional decoder yields per-
 * stage work totals (StageCounts), microbenchmarks of each traced
 * kernel through the pipeline simulator yield per-invocation cycle
 * costs (StageCosts), and the profile estimate is their product.
 * CABAC and the deblocking filter are priced with the scalar traced
 * implementations in every variant, matching the paper's decoder
 * (serial CABAC; SIMD deblocking "under development").
 */

#ifndef UASIM_DECODER_PROFILE_HH
#define UASIM_DECODER_PROFILE_HH

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "decoder/codec.hh"
#include "h264/kernels.hh"
#include "timing/config.hh"
#include "trace/sink.hh"

namespace uasim::dec {

/// Simulated cycles per invocation unit, per variant/core.
struct StageCosts {
    /// Luma MC block: [size 0=16,1=8,2=4][fy*4+fx].
    std::array<std::array<double, 16>, 3> lumaMc{};
    /// Chroma MC block: [size 0=8,1=4,2=2]; 2x2 always scalar.
    std::array<double, 3> chromaMc{};
    double chromaCopy = 0;   //!< per zero-fraction chroma block
    double idct4x4 = 0;      //!< per coded 4x4 block
    double deblockMb = 0;    //!< per macroblock (scalar)
    double cabacBin = 0;     //!< per bin (scalar)
    double videoOutByte = 0; //!< per output byte
};

/**
 * One independently recordable stage microbenchmark.
 *
 * @p record is self-contained and deterministic: it builds its own
 * fixture (planes and an Emitter with its AddrNormalizer) and emits
 * the stage's normalized trace into the sink, so it can run from any
 * sweep worker thread. The stage cost is `simulated cycles /
 * divisor`, stored into a StageCosts by @p assign.
 */
struct StageCostJob {
    std::string key;  //!< unique per stage within one variant
    int divisor = 1;
    std::function<void(trace::TraceSink &)> record;
    std::function<void(StageCosts &, double)> assign;
};

/// All stage microbenchmarks for @p variant, in StageCosts order.
std::vector<StageCostJob> stageCostJobs(h264::Variant variant);

/// Measure all stage costs for @p variant on @p cfg.
StageCosts measureStageCosts(h264::Variant variant,
                             const timing::CoreConfig &cfg);

/// Estimated per-stage cycles for a decode run.
struct ProfileEstimate {
    double mc = 0;        //!< luma + chroma motion compensation
    double idct = 0;
    double deblock = 0;
    double cabac = 0;
    double videoOut = 0;
    double others = 0;

    double
    totalCycles() const
    {
        return mc + idct + deblock + cabac + videoOut + others;
    }

    double seconds(double hz) const { return totalCycles() / hz; }
};

/**
 * Combine counts and costs. @p others_cycles is the variant-invariant
 * glue/OS share (callers typically derive it from the scalar total).
 */
ProfileEstimate estimateProfile(const StageCounts &counts,
                                const StageCosts &costs,
                                double others_cycles);

} // namespace uasim::dec

#endif // UASIM_DECODER_PROFILE_HH
