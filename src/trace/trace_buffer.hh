/**
 * @file
 * In-memory record stream, decoded: one 56-byte InstrRecord per
 * record.
 *
 * Tests and tools capture a stream here to inspect it or to replay
 * the exact appended records, in order, into a timing model
 * (replayInto), which is bit-identical to feeding the emulation stream
 * directly (tests/sweep_test.cc locks this equivalence). The sweep
 * engine does not use it: it keeps recorded traces encoded, about
 * 7 bytes per record, in a trace::EncodedTrace (trace/trace_io.hh).
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
