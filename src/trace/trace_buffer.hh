/**
 * @file
 * In-memory recorded trace for record-once/replay-many experiments.
 *
 * A TraceBuffer is the capture side of the sweep engine
 * (core/sweep.hh): a worker records a workload's normalized record
 * stream once, then replays the buffer into any number of timing
 * simulators. Replay feeds the exact records that were appended, in
 * order, so a replayed timing model is bit-identical to one that
 * consumed the emulation stream directly (tests/sweep_test.cc locks
 * this equivalence).
 */

#ifndef UASIM_TRACE_TRACE_BUFFER_HH
#define UASIM_TRACE_TRACE_BUFFER_HH

#include <cstddef>
#include <vector>

#include "trace/instr.hh"
#include "trace/mix.hh"
#include "trace/sink.hh"

namespace uasim::trace {

/// Sink that stores the full record stream and its running mix.
class TraceBuffer : public TraceSink
{
  public:
    void
    append(const InstrRecord &rec) override
    {
        records_.push_back(rec);
        mix_.add(rec);
    }

    void
    appendBlock(const InstrRecord *recs, std::size_t n) override
    {
        records_.insert(records_.end(), recs, recs + n);
        for (std::size_t i = 0; i < n; ++i)
            mix_.add(recs[i]);
    }

    /// Number of buffered records.
    std::size_t size() const { return records_.size(); }

    /// Instruction mix of the buffered stream.
    const InstrMix &mix() const { return mix_; }

    const std::vector<InstrRecord> &records() const { return records_; }

    /// Feed every buffered record, in order, into @p down.
    void
    replayInto(TraceSink &down) const
    {
        down.appendBlock(records_.data(), records_.size());
    }

    /// Drop the buffered stream (keeps capacity).
    void
    clear()
    {
        records_.clear();
        mix_.clear();
    }

  private:
    std::vector<InstrRecord> records_;
    InstrMix mix_;
};

} // namespace uasim::trace

#endif // UASIM_TRACE_TRACE_BUFFER_HH
