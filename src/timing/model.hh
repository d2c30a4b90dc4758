/**
 * @file
 * Two legacy factories for the one timing engine, BatchedPipelineSim
 * (timing/batched_pipeline.hh). Nothing in src/, bench/ or tools/
 * calls them: production code constructs the engine directly. They
 * stay only because the host-performance benchmark
 * (hostperf/hostperf.cc) compiles against them; ROADMAP.md item 4,
 * which gives SweepRunner its own spans and deletes hostperf's
 * mirror of the runner, retires them.
 */

#ifndef UASIM_TIMING_MODEL_HH
#define UASIM_TIMING_MODEL_HH

#include <memory>
#include <vector>

#include "timing/batched_pipeline.hh"
#include "timing/config.hh"

namespace uasim::timing {

/// The engine at one cell: BatchedPipelineSim({cfg}).
inline std::unique_ptr<BatchedPipelineSim>
makeTimingModel(const CoreConfig &cfg)
{
    return std::make_unique<BatchedPipelineSim>(std::vector{cfg});
}

/// The engine at one cell per entry of @p cfgs.
inline std::unique_ptr<BatchedPipelineSim>
makeBatchedTimingModel(const std::vector<CoreConfig> &cfgs)
{
    return std::make_unique<BatchedPipelineSim>(cfgs);
}

} // namespace uasim::timing

#endif // UASIM_TIMING_MODEL_HH
