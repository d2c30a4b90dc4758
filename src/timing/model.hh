/**
 * @file
 * TimingModel: the trace-replay contract every timing backend
 * implements, and the factory that selects a backend by name.
 *
 * A timing backend consumes an address-normalized InstrRecord stream
 * (it is a TraceSink, so emulation, trace buffers and the persistent
 * store all feed it the same way) and produces one SimResult - the
 * simResultFields() counter table of core/result.hh. Everything above
 * this interface (SweepRunner, the benches, bench_util's shared
 * flags) is model-agnostic: it selects a backend through
 * CoreConfig::model and the makeTimingModel()/makeBatchedTimingModel()
 * factories, never by naming a concrete simulator class.
 *
 * Backends, both simulated by one engine, BatchedPipelineSim
 * (timing/batched_pipeline.hh), whose cells each follow their own
 * CoreConfig::model - makeTimingModel() returns it as a one-cell
 * model, makeBatchedTimingModel() as an N-cell one, for any mix of
 * models and predictor sizes:
 *   "pipeline"  the Turandot-like in-flight-window model of the
 *               paper's Table II runs (in-order issue with a bounded
 *               lookahead unless CoreConfig::outOfOrder; every
 *               aliasing load waits for the older store).
 *   "ooo"       an always-out-of-order core with a decoupled issue
 *               width (CoreConfig::issueWidth) and a store-set
 *               memory-dependence predictor.
 * The straightforward reference implementations, PipelineSim and
 * OoOPipelineSim, are only the oracles tests diff the engine against.
 *
 * Stream-pure invariants shared by every backend: the fetch stage
 * predicts and trains the branch predictor exactly once per branch,
 * in program order, so instruction counts, branch counts, mispredict
 * bits and unaligned-op counts are pure functions of the stream -
 * identical across backends while cycle timing differs
 * (tests/timing_model_test.cc is the cross-model differential
 * harness).
 */

#ifndef UASIM_TIMING_MODEL_HH
#define UASIM_TIMING_MODEL_HH

#include <memory>
#include <string>
#include <vector>

#include "timing/batched_pipeline.hh"
#include "timing/config.hh"
#include "timing/results.hh"
#include "trace/sink.hh"

namespace uasim::timing {

/**
 * One timing backend instance simulating one core configuration.
 * Feed the record stream through the TraceSink interface (append /
 * appendBlock), then finalize() exactly once to drain the machine and
 * read the counter table.
 */
class TimingModel : public trace::TraceSink
{
  public:
    ~TimingModel() override = default;

    /// Drain the machine and return the final statistics. Idempotent.
    virtual SimResult finalize() = 0;

    /// The configuration this model simulates.
    virtual const CoreConfig &config() const = 0;
};

/// Registered backend names, in presentation order.
const std::vector<std::string> &timingModelNames();

/// True when @p name names a registered backend.
bool isTimingModel(const std::string &name);

/**
 * Construct the backend selected by @p cfg.model.
 * @throws std::invalid_argument on an unknown model name (callers
 * with a command line validate through isTimingModel first and exit 2).
 */
std::unique_ptr<TimingModel> makeTimingModel(const CoreConfig &cfg);

/**
 * Construct the batched engine for @p cfgs (one cell per entry;
 * duplicates allowed; models and predictor sizes may differ). Per-cell
 * results are bit-identical to feeding the same stream into one
 * makeTimingModel() per config.
 * @throws std::invalid_argument if any entry is invalid or names an
 * unknown model.
 */
std::unique_ptr<BatchedPipelineSim>
makeBatchedTimingModel(const std::vector<CoreConfig> &cfgs);

} // namespace uasim::timing

#endif // UASIM_TIMING_MODEL_HH
