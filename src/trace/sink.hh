/**
 * @file
 * Trace sinks: consumers of the dynamic instruction stream.
 */

#ifndef UASIM_TRACE_SINK_HH
#define UASIM_TRACE_SINK_HH

#include <cstddef>

#include "trace/instr.hh"
#include "trace/mix.hh"

namespace uasim::trace {

/**
 * Abstract consumer of instruction records.
 *
 * The emulation facades push every executed instruction into a sink;
 * implementations count them, buffer them, serialize them, or stream
 * them straight into the timing model.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /// Consume one record. Called once per dynamic instruction, in order.
    virtual void append(const InstrRecord &rec) = 0;

    /**
     * Consume a contiguous block of records, in order. Semantically
     * identical to append()ing each record; sinks that can exploit
     * batching (block decoders upstream, the batched replay engine
     * downstream) override this to skip the per-record virtual call.
     */
    virtual void
    appendBlock(const InstrRecord *recs, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            append(recs[i]);
    }
};

/// Sink that discards everything (pure functional execution).
class NullSink : public TraceSink
{
  public:
    void append(const InstrRecord &) override {}
};

/// Sink that accumulates an InstrMix.
class CountingSink : public TraceSink
{
  public:
    void append(const InstrRecord &rec) override { mix_.add(rec); }

    const InstrMix &mix() const { return mix_; }
    void clear() { mix_.clear(); }

  private:
    InstrMix mix_;
};

} // namespace uasim::trace

#endif // UASIM_TRACE_SINK_HH
