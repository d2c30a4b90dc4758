/**
 * @file
 * Experiment layer: the public API tying kernels, trace collection and
 * the timing simulator together.
 *
 * A KernelBench reproduces the paper's measurement unit: "one
 * execution" is one kernel invocation on MC-realistic inputs (for the
 * IDCT, one macroblock's worth of transforms, which is what makes the
 * paper's per-execution counts thousands of instructions). Inputs are
 * drawn deterministically: source pointers get the unpredictable
 * (addr % 16) distribution of real motion compensation; destination
 * pointers are partition-aligned like a real reconstruction buffer.
 */

#ifndef UASIM_CORE_EXPERIMENT_HH
#define UASIM_CORE_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "h264/kernels.hh"
#include "timing/config.hh"
#include "timing/results.hh"
#include "trace/mix.hh"
#include "trace/sink.hh"
#include "video/frame.hh"
#include "video/rng.hh"

namespace uasim::core {

/// One benchmarked kernel configuration (a Table III / Fig 8 row).
struct KernelSpec {
    h264::KernelId kernel = h264::KernelId::Sad;
    int size = 16;        //!< block edge in pixels
    bool matrix = false;  //!< IDCT 4x4 matrix-product algorithm

    /// Display name, e.g. "luma16x16", "idct4x4_matrix".
    std::string name() const;

    /**
     * True when the dynamic trace of @p variant on this spec is
     * independent of the bench's accumulated plane state, i.e. a
     * recording on a fresh bench is bit-identical to one taken after
     * any number of prior executions on the same bench. Only the
     * scalar IDCT is state-sensitive: it reads the reconstruction
     * plane back and clips through a value-indexed table, so its
     * load addresses depend on what earlier calls wrote. Every other
     * kernel/variant reads only never-written planes (MC/SAD
     * sources) or runs value-independent vector code.
     */
    bool traceStateInvariant(h264::Variant variant) const;
};

/// The kernel/size grid of the paper's evaluation (Fig 8 order).
std::vector<KernelSpec> paperKernelGrid();

/// The Table III subset (one block size per kernel family).
std::vector<KernelSpec> tableThreeSpecs();

/**
 * Deterministic workload generator + runner for one KernelSpec.
 *
 * Working-set geometry: 256x256 padded planes (bigger than the 32KB
 * L1-D) so repeated executions produce realistic cache behaviour.
 */
class KernelBench
{
  public:
    KernelBench(const KernelSpec &spec, std::uint64_t seed = 12345);
    ~KernelBench();

    KernelBench(const KernelBench &) = delete;
    KernelBench &operator=(const KernelBench &) = delete;

    const KernelSpec &spec() const { return spec_; }

    /// Run execution @p iter (deterministic per iter) under @p variant.
    void runOnce(h264::KernelCtx &ctx, h264::Variant variant, int iter);

    /// Dynamic instruction mix over @p execs executions.
    trace::InstrMix countInstrs(h264::Variant variant, int execs);

    /**
     * Advance the bench state by @p execs executions of @p variant
     * without tracing. Kernel outputs are bit-exact across variants
     * (verifyVariants / kernel_equivalence_test lock this), so
     * advancing with any variant reproduces the plane state a
     * shared-bench measurement sequence left behind, call for call.
     */
    void advanceState(h264::Variant variant, int execs);

    /**
     * Stream the address-normalized trace of @p execs executions of
     * @p variant into @p sink. This is the capture half of simulate():
     * replaying the recorded stream into a timing model yields exactly
     * the result simulate() returns for the same bench state.
     */
    void recordTrace(h264::Variant variant, int execs,
                     trace::TraceSink &sink);

    /// Simulated execution of @p execs executions on @p cfg, streamed
    /// straight into a one-cell timing::BatchedPipelineSim (the
    /// backend selected by cfg.model).
    timing::SimResult simulate(h264::Variant variant,
                               const timing::CoreConfig &cfg, int execs);

    /**
     * Functional check: run one execution per variant on identical
     * inputs and compare all outputs against the reference
     * implementation. @return true if every variant is bit-exact.
     */
    bool verifyVariants(int iters = 8);

  private:
    struct Impl;
    KernelSpec spec_;
    std::unique_ptr<Impl> impl_;
};

} // namespace uasim::core

#endif // UASIM_CORE_EXPERIMENT_HH
