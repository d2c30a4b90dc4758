/**
 * @file
 * The benchmark's own machinery, kept apart from the driver so its
 * tests can reach it: the outside-in span recorder and its self-time
 * arithmetic, the tail-percentile rule, the metric-name rule, and the
 * cell digest that checks every pass's simulated output.
 *
 * Spans are recorded from the benchmark's files around calls into the
 * simulator's public layer functions; nothing inside libuasim is
 * instrumented.
 */

#ifndef HOSTPERF_PERF_CORE_HH
#define HOSTPERF_PERF_CORE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "timing/results.hh"
#include "trace/mix.hh"

namespace hostperf {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since @p start.
double secondsSince(Clock::time_point start);

/// Median of @p v (mean of the two middle values for even sizes);
/// 0 for an empty vector.
double median(std::vector<double> v);

/**
 * Host-speed probe: the seconds probeLoop() takes on the calling
 * thread. The loop models a 4-way LRU cache over a pseudo-random
 * address stream; like the simulator it is branchy and cache-resident,
 * and it slows down with the same contention from other tenants of a
 * shared host.
 */
double probeSeconds();

/// The probe's loop on its own: the number of cache hits it counts,
/// the same on every call.
std::uint64_t probeLoop();

/// One closed span: [start, end) in seconds since the recorder's epoch.
struct SpanRecord {
    std::string name;
    int id = 0;
    int parent = -1;  //!< id of the enclosing span; -1 for a root
    int pass = 0;     //!< pass the span belongs to
    int tid = 0;      //!< small thread index for the trace viewer
    double start = 0;
    double end = 0;

    double duration() const { return end - start; }
};

/**
 * Self time of every span (same order as @p spans): its duration minus
 * the length of the union of its children's intervals, each clipped to
 * the parent's interval. Children may sit on other threads and overlap
 * each other (worker spans under a pass span); the union counts shared
 * time once, so self time is never negative.
 */
std::vector<double> selfTimes(const std::vector<SpanRecord> &spans);

/**
 * Thread-safe in-memory span store. Spans are appended when they
 * close; ids are handed out when they open, so a child can name a
 * parent that is still open.
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    int nextId();
    double now() const;
    void add(SpanRecord rec);

    /// Copy of every closed span, in close order.
    std::vector<SpanRecord> spans() const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;  // guarded by mutex_
    int nextId_ = 0;                 // guarded by mutex_
};

/**
 * RAII span: opens on construction, closes (and is recorded) on
 * destruction. A null recorder makes it a no-op, so untraced passes
 * run the same code without spans.
 */
class Span
{
  public:
    Span(SpanRecorder *rec, const char *name, int parent, int pass,
         int tid);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /// This span's id (-1 when not recording).
    int id() const { return rec_.id; }

  private:
    SpanRecorder *recorder_;
    SpanRecord rec_;
};

/// A timing reported at the highest percentile the sample supports.
struct TailPercentile {
    double percentile = 0;  //!< e.g. 90 for p90
    double value = 0;       //!< nearest-rank sample at that percentile
    std::size_t samples = 0;
    std::size_t beyond = 0;  //!< samples strictly above the rank
};

/**
 * The percentile rule: of p50, p90, p99 and p99.9, the highest whose
 * nearest-rank position leaves at least ten samples beyond it. Empty
 * when even p50 does not (fewer than 20 samples).
 */
std::optional<TailPercentile> tailPercentile(std::vector<double> samples);

/// Metric names are 1..64 characters of [A-Za-z0-9_.-], starting with
/// a letter or digit.
bool validMetricName(std::string_view name);

/**
 * FNV-1a digest over the simulated output of a pass, cell by cell in
 * cell order: every simResultFields() counter, every instruction-class
 * count of the cell's mix, and the trace length. Two passes over the
 * same inputs agree exactly, whatever the thread count, store state or
 * execution path.
 */
class CellDigest
{
  public:
    void add(const uasim::timing::SimResult &sim,
             const uasim::trace::InstrMix &mix,
             std::uint64_t traceInstrs);

    std::uint64_t value() const { return state_; }
    std::size_t cells() const { return cells_; }

    /// value() as 16 lowercase hex digits.
    std::string hex() const;

  private:
    void mixIn(std::uint64_t v);

    std::uint64_t state_ = 0xcbf29ce484222325ull;
    std::size_t cells_ = 0;
};

/// JSON string literal for @p s (quotes and escapes included).
std::string jsonQuote(std::string_view s);

/**
 * Write @p spans as Chrome trace-event JSON ("X" complete events, one
 * process, one track per tid; id/parent/pass in each event's args),
 * with @p metadataJson (a JSON object text) under "metadata". Opens in
 * Perfetto and chrome://tracing.
 * @throws std::runtime_error on I/O failure.
 */
void writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans,
                      const std::string &metadataJson);

} // namespace hostperf

#endif // HOSTPERF_PERF_CORE_HH
