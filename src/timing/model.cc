#include "timing/model.hh"

#include <stdexcept>
#include <utility>

#include "timing/batched_pipeline.hh"
#include "timing/ooo_pipeline.hh"

namespace uasim::timing {

namespace {

/**
 * The "pipeline" backend as a one-cell TimingModel. BatchedPipelineSim
 * at one cell is bit-identical to the PipelineSim reference and about
 * twice as fast, so it is the only pipeline engine in production;
 * PipelineSim stays as the test oracle (tests/batched_replay_test.cc).
 */
class SingleCellPipelineModel : public TimingModel
{
  public:
    explicit SingleCellPipelineModel(const CoreConfig &cfg)
        : cfg_(cfg), batch_({cfg})
    {
    }

    void
    append(const trace::InstrRecord &rec) override
    {
        batch_.append(rec);
    }

    void
    appendBlock(const trace::InstrRecord *recs, std::size_t n) override
    {
        batch_.appendBlock(recs, n);
    }

    SimResult
    finalize() override
    {
        return batch_.finalizeAll().front();
    }

    const CoreConfig &config() const override { return cfg_; }

  private:
    CoreConfig cfg_;
    BatchedPipelineSim batch_;
};

/**
 * Fallback batched engine: one TimingModel per cell, fed cell-major
 * per block so each cell's machine state stays cache-hot across the
 * block. No cross-cell sharing, so it works for any model mix and is
 * bit-identical to the per-cell path by construction.
 */
class MuxBatchedModel : public BatchedTimingModel
{
  public:
    explicit MuxBatchedModel(const std::vector<CoreConfig> &cfgs)
    {
        cells_.reserve(cfgs.size());
        for (const auto &cfg : cfgs)
            cells_.push_back(makeTimingModel(cfg));
    }

    void
    append(const trace::InstrRecord &rec) override
    {
        appendBlock(&rec, 1);
    }

    void
    appendBlock(const trace::InstrRecord *recs, std::size_t n) override
    {
        for (auto &cell : cells_)
            cell->appendBlock(recs, n);
    }

    std::vector<SimResult>
    finalizeAll() override
    {
        std::vector<SimResult> out;
        out.reserve(cells_.size());
        for (auto &cell : cells_)
            out.push_back(cell->finalize());
        return out;
    }

    int cellCount() const override { return int(cells_.size()); }

  private:
    std::vector<std::unique_ptr<TimingModel>> cells_;
};

} // namespace

const std::vector<std::string> &
timingModelNames()
{
    static const std::vector<std::string> names = {"pipeline", "ooo"};
    return names;
}

bool
isTimingModel(const std::string &name)
{
    for (const auto &n : timingModelNames()) {
        if (n == name)
            return true;
    }
    return false;
}

std::unique_ptr<TimingModel>
makeTimingModel(const CoreConfig &cfg)
{
    if (cfg.model == "pipeline")
        return std::make_unique<SingleCellPipelineModel>(cfg);
    if (cfg.model == "ooo")
        return std::make_unique<OoOPipelineSim>(cfg);
    throw std::invalid_argument("unknown timing model \"" + cfg.model +
                                "\"");
}

std::unique_ptr<BatchedTimingModel>
makeBatchedTimingModel(const std::vector<CoreConfig> &cfgs)
{
    // The shared-window engine requires a uniform "pipeline" group
    // with one predictor geometry (its mispredict precompute runs a
    // single shared predictor - see BatchedPipelineSim).
    bool uniformPipeline = true;
    for (const auto &cfg : cfgs) {
        if (!isTimingModel(cfg.model)) {
            throw std::invalid_argument("unknown timing model \"" +
                                        cfg.model + "\"");
        }
        if (cfg.model != "pipeline" ||
            cfg.bpredLog2Entries != cfgs.front().bpredLog2Entries)
            uniformPipeline = false;
    }
    if (uniformPipeline && !cfgs.empty())
        return std::make_unique<BatchedPipelineSim>(cfgs);
    return std::make_unique<MuxBatchedModel>(cfgs);
}

} // namespace uasim::timing
