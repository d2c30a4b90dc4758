#include "timing/model.hh"

namespace uasim::timing {

namespace {

/**
 * Either backend as a one-cell TimingModel. BatchedPipelineSim at one
 * cell is bit-identical to the backend's reference oracle and faster,
 * so it is the only timing engine in production; PipelineSim and
 * OoOPipelineSim stay as the test oracles
 * (tests/batched_replay_test.cc).
 */
class SingleCellModel : public TimingModel
{
  public:
    explicit SingleCellModel(const CoreConfig &cfg)
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
    return std::make_unique<SingleCellModel>(cfg);
}

std::unique_ptr<BatchedPipelineSim>
makeBatchedTimingModel(const std::vector<CoreConfig> &cfgs)
{
    return std::make_unique<BatchedPipelineSim>(cfgs);
}

} // namespace uasim::timing
