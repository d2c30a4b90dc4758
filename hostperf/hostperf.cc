/**
 * @file
 * hostperf: the uasim host-performance benchmark driver.
 *
 * One invocation runs one workload as a closed loop - one client
 * issuing passes back to back - for a fixed number of seconds and
 * prints every metric by name with its unit, ending with one JSON
 * result line. Untraced passes go through the simulator's real entry
 * points (SweepRunner::run, Campaign::load + runCampaignShard) and
 * give the end-to-end metrics. With --trace 1 the driver alternates
 * untraced passes with traced ones that rebuild the same pass from the
 * public functions of each layer (kernel emulation, trace
 * encode/open/decode, timing backends, artifact write), wrapped in
 * spans, and reports per-layer self time and throughput instead.
 * End-to-end times are scaled by a host-speed probe taken before each
 * pass (see kProbeReference); the output shows them as measured too.
 *
 * Every pass, traced or not, is checked: a digest over each cell's
 * simulated counters and instruction mix must equal the committed
 * reference (default seed) or the first pass's digest (other seeds).
 *
 * Usage:
 *   hostperf --workload fig9_warm|table3_cold|campaign_mixed
 *            [--seed N] [--seconds S] [--trace 0|1] [--commit SHA]
 * It runs from the repository root: the reference digests and the
 * campaign file are read from hostperf/, work files go to .bench_work/,
 * and a traced run leaves its spans in
 * .bench_work/trace-<workload>-seed<N>.json.
 * Exit status: 0 all checks passed, 1 a check or pass failed (the
 * result line says correct=false), 2 bad usage or unreadable input.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.hh"
#include "core/experiment.hh"
#include "core/json.hh"
#include "core/result.hh"
#include "core/sweep.hh"
#include "perf_core.hh"
#include "timing/model.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_store.hh"

namespace fs = std::filesystem;
using namespace uasim;
using hostperf::Span;
using hostperf::SpanRecorder;

namespace {

/// Workload scale (execs 0 = take it from the campaign file).
struct WorkloadInfo {
    const char *name;
    int execs;
    int threads;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"fig9_warm", 150, 1},
    {"table3_cold", 250, 1},
    {"campaign_mixed", 0, 4},
};

/// Set-up repeats at least kMinSetupReps times and until kSetupBudget
/// seconds of set-up have run (at most kMaxSetupReps times), so a
/// cheap set-up still gets a steady median; setup_s is that median.
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 48;
constexpr double kSetupBudget = 6.0;

/// Timed passes of each kind (untraced, traced) at least.
constexpr std::size_t kMinPasses = 3;

/**
 * Every set-up repetition and pass is timed right after a host-speed
 * probe (hostperf::probeSeconds) and scaled by kProbeReference / probe:
 * to the time it would take when the probe takes kProbeReference, its
 * typical time on the reference host (Intel Xeon, 4 vCPUs, gcc 12.2.0
 * Release). Other tenants of a shared host change its speed by 30 % and
 * more for minutes at a time; the probe slows down with them, and the
 * scaled time much less. The probe runs on one thread for every
 * workload: on four at once it swung more than the 4-worker campaign
 * passes did.
 */
constexpr double kProbeReference = 0.036;

/// Inputs and outputs, relative to the repository root.
constexpr const char *kWorkDir = ".bench_work";
constexpr const char *kReference = "hostperf/reference.json";
constexpr const char *kCampaign = "hostperf/campaign_mixed.conf";

struct Options {
    std::string workload;
    std::uint64_t seed = 12345;
    double seconds = 10;
    bool trace = false;
    std::string commit = "unknown";
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "hostperf: %s\n", msg.c_str());
    std::exit(2);
}

long long
parseInt(const char *flag, const char *text, long long lo, long long hi)
{
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < lo ||
        v > hi) {
        usageError(std::string(flag) + ": invalid value \"" + text +
                   "\"");
    }
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usageError(flag + ": missing operand");
        const char *val = argv[++i];
        if (flag == "--workload")
            o.workload = val;
        else if (flag == "--seed")
            o.seed = std::uint64_t(parseInt("--seed", val, 0, 1LL << 62));
        else if (flag == "--seconds")
            o.seconds = double(parseInt("--seconds", val, 1, 3600));
        else if (flag == "--trace")
            o.trace = parseInt("--trace", val, 0, 1) == 1;
        else if (flag == "--commit")
            o.commit = val;
        else
            usageError("unknown flag " + flag);
    }
    if (o.workload.empty())
        usageError("--workload is required");
    return o;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set of this process image in MiB: VmHWM, which,
/// unlike ru_maxrss, does not carry over the launcher's peak across
/// exec. Falls back to ru_maxrss where /proc is unavailable.
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Outcome of one pass (or one set-up repetition).
struct PassResult {
    std::vector<core::SweepCellResult> cells;
    std::uint64_t instrsRecorded = 0;  //!< records emulated in the pass
    std::uint64_t instrsReplayed = 0;  //!< records fed to timing cells
    double wall = 0;
    double cpu = 0;
};

/// Wall and user+sys CPU time of one pass.
class PassTimer
{
  public:
    PassTimer() : wall0_(hostperf::Clock::now()), cpu0_(cpuSeconds()) {}

    void
    stop(PassResult &r) const
    {
        r.wall = hostperf::secondsSince(wall0_);
        r.cpu = cpuSeconds() - cpu0_;
    }

  private:
    hostperf::Clock::time_point wall0_;
    double cpu0_;
};

/// Work one timing span kind did: cell instructions and sim cycles.
struct TimingTally {
    std::uint64_t cellInstrs = 0;
    std::uint64_t simCycles = 0;
};

/// Work counts taken at the layer boundaries of one traced pass.
struct LayerCounts {
    std::uint64_t emulateInstrs = 0;
    std::uint64_t bytesWritten = 0;   //!< store entry bytes published
    std::uint64_t probes = 0;         //!< store lookups
    std::uint64_t hits = 0;           //!< lookups served by the store
    std::uint64_t decodeBytes = 0;    //!< UATRACE2 payload decoded
    std::uint64_t artifactBytes = 0;
    std::uint64_t chunks = 0;         //!< chunk artifacts published
    std::map<std::string, TimingTally> timing;

    void
    merge(const LayerCounts &o)
    {
        emulateInstrs += o.emulateInstrs;
        bytesWritten += o.bytesWritten;
        probes += o.probes;
        hits += o.hits;
        decodeBytes += o.decodeBytes;
        artifactBytes += o.artifactBytes;
        chunks += o.chunks;
        for (const auto &[k, t] : o.timing) {
            timing[k].cellInstrs += t.cellInstrs;
            timing[k].simCycles += t.simCycles;
        }
    }
};

/// Span sink and counters of one traced pass.
struct Tracer {
    SpanRecorder *rec = nullptr;
    int pass = 0;
    bool setup = false;
    int threads = 1;
    double wall = 0;
    LayerCounts counts;
};

SpanRecorder *
recorderOf(Tracer *t)
{
    return t ? t->rec : nullptr;
}

int
passOf(Tracer *t)
{
    return t ? t->pass : 0;
}

/// Span name of a timing call over @p cfgs: one cell runs its own
/// backend, several all-pipeline cells the batched engine, anything
/// else the generic mixed-model multiplexer.
std::string
timingSpanName(const std::vector<timing::CoreConfig> &cfgs)
{
    if (cfgs.size() == 1)
        return "timing." + cfgs[0].model;
    const bool allPipeline =
        std::all_of(cfgs.begin(), cfgs.end(), [](const auto &c) {
            return c.model == "pipeline";
        });
    return allPipeline ? "timing.batched" : "timing.mixed";
}

/**
 * Emulation sink of the traced rebuild. Records collect in @p buf and,
 * every kChunk records and at flush(), the new ones are encoded into
 * the store recorder (when there is one) inside a trace.encode span
 * nested in the enclosing h264.emulate span @p parent. Emulation and
 * encoding thus interleave in cache-sized chunks, as under the runner's
 * TeeSink, and self time still splits them. With @p keep false
 * (mix-only groups) @p buf is only the chunk buffer: flushed records
 * are dropped and just their mix is kept.
 */
class EncodingSink : public trace::TraceSink
{
  public:
    /// 4096 records (224 KiB) stay in a core's L2 between the copy and
    /// the encode that reads them back.
    static constexpr std::size_t kChunk = 4096;

    EncodingSink(trace::TraceBuffer &buf, bool keep,
                 trace::TraceStore::Recorder *recorder, const Tracer &t,
                 int parent, int tid)
        : buf_(buf), keep_(keep), recorder_(recorder), t_(t),
          parent_(parent), tid_(tid)
    {}

    void
    append(const trace::InstrRecord &rec) override
    {
        buf_.append(rec);
        if (buf_.size() - done_ >= kChunk)
            flush();
    }

    void
    appendBlock(const trace::InstrRecord *recs, std::size_t n) override
    {
        buf_.appendBlock(recs, n);
        if (buf_.size() - done_ >= kChunk)
            flush();
    }

    void
    flush()
    {
        if (recorder_ && buf_.size() > done_) {
            Span s(t_.rec, "trace.encode", parent_, t_.pass, tid_);
            recorder_->appendBlock(buf_.records().data() + done_,
                                   buf_.size() - done_);
        }
        count_ += buf_.size() - done_;
        if (keep_) {
            done_ = buf_.size();
        } else {
            flushedMix_ += buf_.mix();
            buf_.clear();
            done_ = 0;
        }
    }

    /// Records emulated and their mix (after the final flush()).
    std::uint64_t count() const { return count_; }
    trace::InstrMix mix() const { return keep_ ? buf_.mix() : flushedMix_; }

  private:
    trace::TraceBuffer &buf_;
    bool keep_;
    trace::TraceStore::Recorder *recorder_;
    const Tracer &t_;
    int parent_, tid_;
    std::size_t done_ = 0;
    std::uint64_t count_ = 0;
    trace::InstrMix flushedMix_;
};

/**
 * Outside-in rebuild of SweepRunner::run: the same grouping (one work
 * unit per trace, cells in plan order, groups pulled by @p threads
 * workers), with every layer called through its public function inside
 * a span. A group probes the store (trace.open); on a hit it decodes
 * the stored trace into a buffer (trace.decode), on a miss it emulates
 * the kernel (h264.emulate), encoding the records into the store as
 * they come (trace.encode, see EncodingSink); then it replays the
 * buffer into its timing cells (timing.*). The runner interleaves
 * decode with simulation block by block; decoding the whole trace
 * first keeps the spans disjoint at the cost of one record buffer per
 * worker.
 */
std::vector<core::SweepCellResult>
tracedGroups(const core::SweepPlan &plan, trace::TraceStore *store,
             int threads, Tracer &t, int parent)
{
    struct Group {
        int trace = 0;
        std::vector<int> cells;
    };
    std::vector<Group> groups(plan.traces().size());
    for (int i = 0; i < int(groups.size()); ++i)
        groups[i].trace = i;
    for (int i = 0; i < int(plan.cells().size()); ++i)
        groups[plan.cells()[i].trace].cells.push_back(i);
    std::erase_if(groups, [](const Group &g) { return g.cells.empty(); });

    std::vector<core::SweepCellResult> results(plan.cells().size());
    const int pool = std::max(1, std::min<int>(threads, int(groups.size())));
    t.threads = pool;

    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> abort{false};
    std::mutex mutex;  // guards t.counts and firstError
    std::exception_ptr firstError;

    auto runGroup = [&](const Group &g, int wid, int tid,
                        LayerCounts &lc, trace::TraceBuffer &buf) {
        const core::TraceJob &job = plan.traces()[g.trace];
        std::vector<int> timingCis;
        std::vector<timing::CoreConfig> cfgs;
        for (int ci : g.cells) {
            const core::SweepCell &cell = plan.cells()[ci];
            if (cell.config == core::SweepCell::mixOnly)
                continue;
            timingCis.push_back(ci);
            cfgs.push_back(plan.configs()[cell.config].cfg);
        }

        Span gs(t.rec, "core.group", wid, t.pass, tid);
        trace::TraceStore *st = job.cacheable ? store : nullptr;
        std::unique_ptr<trace::TraceReader> reader;
        std::optional<trace::TraceSummary> summary;
        if (st) {
            Span s(t.rec, "trace.open", gs.id(), t.pass, tid);
            ++lc.probes;
            if (timingCis.empty())
                summary = st->loadSummary(job.key);
            else
                reader = st->openReader(job.key);
            if (summary || reader)
                ++lc.hits;
        }

        buf.clear();
        trace::InstrMix mix;
        if (summary) {
            mix = summary->mix;
        } else if (reader) {
            Span s(t.rec, "trace.decode", gs.id(), t.pass, tid);
            trace::TraceCursor cur = reader->cursor();
            trace::InstrRecord block[1024];
            while (std::size_t got = cur.nextBlock(block, std::size(block)))
                buf.appendBlock(block, got);
            lc.decodeBytes += reader->payloadBytes();
            mix = reader->mix();
        } else {
            std::unique_ptr<trace::TraceStore::Recorder> recorder;
            if (st) {
                recorder = st->startRecord(job.key);
                if (!recorder)
                    throw std::runtime_error("cannot record " + job.key);
            }
            {
                Span s(t.rec, "h264.emulate", gs.id(), t.pass, tid);
                EncodingSink sink(buf, !timingCis.empty(), recorder.get(), t,
                                  s.id(), tid);
                job.record(sink);
                sink.flush();
                lc.emulateInstrs += sink.count();
                mix = sink.mix();
            }
            if (recorder) {
                Span s(t.rec, "trace.encode", gs.id(), t.pass, tid);
                recorder->commit();
                lc.bytesWritten += fs::file_size(st->entryPath(job.key));
            }
        }

        if (!timingCis.empty()) {
            const std::string name = timingSpanName(cfgs);
            std::vector<timing::SimResult> sims;
            {
                Span s(t.rec, name.c_str(), gs.id(), t.pass, tid);
                if (cfgs.size() == 1) {
                    auto model = timing::makeTimingModel(cfgs[0]);
                    buf.replayInto(*model);
                    sims.push_back(model->finalize());
                } else {
                    auto batch = timing::makeBatchedTimingModel(cfgs);
                    buf.replayInto(*batch);
                    sims = batch->finalizeAll();
                }
            }
            TimingTally &tally = lc.timing[name];
            tally.cellInstrs += buf.size() * sims.size();
            for (std::size_t i = 0; i < sims.size(); ++i) {
                tally.simCycles += sims[i].cycles;
                results[timingCis[i]].sim = std::move(sims[i]);
            }
        }
        for (int ci : g.cells) {
            const core::SweepCell &cell = plan.cells()[ci];
            auto &res = results[ci];
            res.traceKey = job.key;
            if (cell.config != core::SweepCell::mixOnly)
                res.configLabel = plan.configs()[cell.config].label;
            res.mix = mix;
            res.traceInstrs = mix.total();
        }
    };

    auto worker = [&](int tid) {
        LayerCounts lc;
        // One buffer per worker, reused across groups (clear() keeps
        // its capacity), so page faults of growing it are paid once.
        trace::TraceBuffer buf;
        try {
            Span w(t.rec, "core.worker", parent, t.pass, tid);
            while (!abort.load(std::memory_order_relaxed)) {
                const std::size_t gi = cursor.fetch_add(1);
                if (gi >= groups.size())
                    break;
                runGroup(groups[gi], w.id(), tid, lc, buf);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            if (!firstError)
                firstError = std::current_exception();
            abort.store(true);
        }
        std::lock_guard<std::mutex> lock(mutex);
        t.counts.merge(lc);
    };

    if (pool == 1) {
        worker(0);
    } else {
        std::vector<std::thread> ths;
        ths.reserve(pool);
        for (int k = 0; k < pool; ++k)
            ths.emplace_back(worker, k + 1);
        for (auto &th : ths)
            th.join();
    }
    if (firstError)
        std::rethrow_exception(firstError);
    return results;
}

/// One set-up repetition: its time, the records it emulated, and the
/// warm-up pass it ran when that pass is a checkable workload pass.
struct SetupResult {
    double seconds = 0;
    std::uint64_t recorded = 0;
    std::optional<PassResult> warmup;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /// One set-up repetition (traced when @p t is non-null).
    virtual SetupResult setup(Tracer *t) = 0;

    /// One timed pass: real entry point, or the traced rebuild.
    virtual PassResult pass(Tracer *t) = 0;

    virtual std::size_t cellCount() const = 0;
    virtual int execs() const = 0;
};

core::SweepPlan
fig9Plan(int execs, std::uint64_t seed, bool mixOnly)
{
    core::SweepPlan plan;
    const int extras[] = {0, 1, 2, 4, 6};
    if (!mixOnly) {
        for (int extra : extras) {
            auto cfg = timing::CoreConfig::fourWayOoO();
            cfg.lat.unalignedLoadExtra = extra;
            cfg.lat.unalignedStoreExtra = extra;
            plan.addConfig("+" + std::to_string(extra) + "cyc", cfg);
        }
    }
    for (const auto &spec : core::paperKernelGrid()) {
        const int alt = plan.addTrace(
            core::kernelTraceJob(spec, h264::Variant::Altivec, execs, seed));
        const int unal = plan.addTrace(core::kernelTraceJob(
            spec, h264::Variant::Unaligned, execs, seed));
        if (mixOnly) {
            plan.addCell(alt, core::SweepCell::mixOnly);
            plan.addCell(unal, core::SweepCell::mixOnly);
            continue;
        }
        plan.addCell(alt, 0);
        for (int e = 0; e < int(std::size(extras)); ++e)
            plan.addCell(unal, e);
    }
    return plan;
}

/// The Fig 9 latency sweep (22 traces, 66 cells, pipeline backend)
/// replayed from a trace store that set-up primed.
class Fig9Warm : public Workload
{
  public:
    Fig9Warm(int execs, std::uint64_t seed, int threads, fs::path base)
        : execs_(execs), seed_(seed), threads_(threads),
          storeDir_((base / "store").string())
    {}

    /// Build the plans, attach an empty store and prime it: every
    /// trace of the plan is recorded into the store, nothing timed.
    SetupResult
    setup(Tracer *t) override
    {
        runner_.reset();
        fs::remove_all(storeDir_);
        PassTimer timer;
        PassResult r;
        {
            Span root(recorderOf(t), "setup", -1, passOf(t), 0);
            {
                Span s(recorderOf(t), "core.plan", root.id(), passOf(t), 0);
                plan_ = fig9Plan(execs_, seed_, false);
                prime_ = fig9Plan(execs_, seed_, true);
                runner_ = std::make_unique<core::SweepRunner>(threads_);
                runner_->attachStore(storeDir_);
            }
            if (t) {
                r.cells = tracedGroups(prime_, runner_->store(), threads_,
                                       *t, root.id());
                r.instrsRecorded = t->counts.emulateInstrs;
            } else {
                r.cells = runner_->run(prime_);
                r.instrsRecorded = runner_->stats().instrsRecorded;
            }
        }
        timer.stop(r);
        return {r.wall, r.instrsRecorded, std::nullopt};
    }

    PassResult
    pass(Tracer *t) override
    {
        PassTimer timer;
        PassResult r;
        {
            Span root(recorderOf(t), "pass", -1, passOf(t), 0);
            if (t) {
                r.cells = tracedGroups(plan_, runner_->store(), threads_,
                                       *t, root.id());
            } else {
                r.cells = runner_->run(plan_);
                r.instrsRecorded = runner_->stats().instrsRecorded;
                r.instrsReplayed = runner_->stats().instrsReplayed;
            }
        }
        timer.stop(r);
        return r;
    }

    std::size_t cellCount() const override { return plan_.cells().size(); }
    int execs() const override { return execs_; }

  private:
    int execs_;
    std::uint64_t seed_;
    int threads_;
    std::string storeDir_;
    core::SweepPlan plan_, prime_;
    std::unique_ptr<core::SweepRunner> runner_;
};

/// The Table III mix-only plan, exactly as table3_instr_count builds
/// it: every Table III spec x variant, plus the per-family reduction
/// traces at execs/4.
core::SweepPlan
table3Plan(int execs, std::uint64_t seed)
{
    core::SweepPlan plan;
    for (const auto &spec : core::tableThreeSpecs()) {
        for (int v = 0; v < h264::numVariants; ++v) {
            const int tr = plan.addTrace(core::kernelTraceJob(
                spec, static_cast<h264::Variant>(v), execs, seed));
            plan.addCell(tr, core::SweepCell::mixOnly);
        }
    }
    const std::pair<h264::KernelId, std::vector<int>> families[] = {
        {h264::KernelId::LumaMc, {16, 8, 4}},
        {h264::KernelId::ChromaMc, {8, 4}},
        {h264::KernelId::Idct, {8, 4}},
        {h264::KernelId::Sad, {16, 8, 4}},
    };
    for (const auto &[id, sizes] : families) {
        for (int size : sizes) {
            const core::KernelSpec spec{id, size, false};
            for (auto v : {h264::Variant::Altivec, h264::Variant::Unaligned}) {
                const int tr = plan.addTrace(
                    core::kernelTraceJob(spec, v, execs / 4, seed));
                plan.addCell(tr, core::SweepCell::mixOnly);
            }
        }
    }
    return plan;
}

/// Table III recording into an empty store on every pass: the write
/// path (emulate, encode, publish) with no timing simulation.
class Table3Cold : public Workload
{
  public:
    Table3Cold(int execs, std::uint64_t seed, int threads, fs::path base)
        : execs_(execs), seed_(seed), threads_(threads),
          storeDir_((base / "store").string())
    {}

    /// Build the plan and run one untimed warm-up pass.
    SetupResult
    setup(Tracer *t) override
    {
        fs::remove_all(storeDir_);
        PassTimer timer;
        PassResult r;
        {
            Span root(recorderOf(t), "setup", -1, passOf(t), 0);
            {
                Span s(recorderOf(t), "core.plan", root.id(), passOf(t), 0);
                plan_ = table3Plan(execs_, seed_);
            }
            r = body(t, root.id());
        }
        timer.stop(r);
        return {r.wall, r.instrsRecorded, r};
    }

    PassResult
    pass(Tracer *t) override
    {
        fs::remove_all(storeDir_);
        PassTimer timer;
        PassResult r;
        {
            Span root(recorderOf(t), "pass", -1, passOf(t), 0);
            r = body(t, root.id());
        }
        timer.stop(r);
        return r;
    }

    std::size_t cellCount() const override { return plan_.cells().size(); }
    int execs() const override { return execs_; }

  private:
    PassResult
    body(Tracer *t, int parent)
    {
        PassResult r;
        if (t) {
            trace::TraceStore store(storeDir_);
            r.cells = tracedGroups(plan_, &store, threads_, *t, parent);
            r.instrsRecorded = t->counts.emulateInstrs;
        } else {
            core::SweepRunner runner(threads_);
            runner.attachStore(storeDir_);
            r.cells = runner.run(plan_);
            r.instrsRecorded = runner.stats().instrsRecorded;
        }
        return r;
    }

    int execs_;
    std::uint64_t seed_;
    int threads_;
    std::string storeDir_;
    core::SweepPlan plan_;
};

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// The benchmark's own campaign file with its seed replaced, so --seed
/// reaches the campaign's trace jobs.
std::string
seededCampaignText(const std::string &path, std::uint64_t seed)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read campaign file " + path);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        const auto eq = line.find('=');
        const auto key = line.substr(0, eq);
        if (eq != std::string::npos &&
            key.substr(0, key.find_last_not_of(" \t") + 1) == "seed")
            line = "seed = " + std::to_string(seed);
        out << line << '\n';
    }
    return out.str();
}

/// A nightly_mid-shaped campaign (paper grid x {altivec, unaligned} x
/// {pipeline, ooo} x 5 latencies) run unsharded with an empty store
/// and an empty artifact directory on every pass.
class CampaignMixed : public Workload
{
  public:
    CampaignMixed(std::string file, std::uint64_t seed, int threads,
                  const fs::path &base)
        : file_(std::move(file)), seed_(seed),
          threads_(threads), seeded_((base / "campaign.conf").string()),
          storeDir_((base / "store").string()),
          artDir_((base / "artifacts").string())
    {}

    /// Load the campaign and run one untimed warm-up pass.
    SetupResult
    setup(Tracer *t) override
    {
        const std::string text = seededCampaignText(file_, seed_);
        clearDirs();
        PassTimer timer;
        PassResult r;
        {
            Span root(recorderOf(t), "setup", -1, passOf(t), 0);
            {
                Span s(recorderOf(t), "core.plan", root.id(), passOf(t), 0);
                std::ofstream(seeded_) << text;
                campaign_ = std::make_unique<core::Campaign>(
                    core::Campaign::load(seeded_));
            }
            r = body(t, root.id());
        }
        timer.stop(r);
        return {r.wall, r.instrsRecorded, r};
    }

    PassResult
    pass(Tracer *t) override
    {
        clearDirs();
        PassTimer timer;
        PassResult r;
        {
            Span root(recorderOf(t), "pass", -1, passOf(t), 0);
            r = body(t, root.id());
        }
        timer.stop(r);
        return r;
    }

    std::size_t
    cellCount() const override
    {
        return std::size_t(campaign_->chunkCount()) *
               std::size_t(campaign_->configCount());
    }
    int execs() const override { return campaign_->execs(); }

  private:
    void
    clearDirs()
    {
        fs::remove_all(storeDir_);
        fs::remove_all(artDir_);
    }

    PassResult
    body(Tracer *t, int parent)
    {
        return t ? tracedBody(*t, parent) : realBody();
    }

    PassResult
    realBody()
    {
        core::CampaignRunOptions opt;
        opt.jsonDir = artDir_;
        opt.threads = threads_;
        opt.traceCache = storeDir_;
        const auto out = core::runCampaignShard(*campaign_, opt);
        if (out.executed != campaign_->chunkCount())
            throw std::runtime_error("campaign pass resumed a chunk");
        PassResult r;
        for (const auto &c : out.artifact.cells)
            r.cells.push_back({c.trace, c.config, c.sim, c.mix, c.traceInstrs});
        r.instrsRecorded = out.artifact.stats.instrsRecorded;
        r.instrsReplayed = out.artifact.stats.instrsReplayed;
        return r;
    }

    /// runCampaignShard rebuilt outside-in: plan and store attach,
    /// the group loop, then the chunk and campaign artifacts.
    PassResult
    tracedBody(Tracer &t, int parent)
    {
        const core::Campaign &c = *campaign_;
        std::vector<int> chunks(std::size_t(c.chunkCount()));
        for (int j = 0; j < c.chunkCount(); ++j)
            chunks[std::size_t(j)] = j;
        const fs::path chunkDir = fs::path(artDir_) / (c.id() + ".chunks");

        core::SweepPlan plan;
        std::unique_ptr<trace::TraceStore> store;
        {
            Span s(t.rec, "core.plan", parent, t.pass, 0);
            plan = c.buildPlan(chunks);
            fs::create_directories(chunkDir);
            store = std::make_unique<trace::TraceStore>(storeDir_);
        }
        PassResult r;
        r.cells = tracedGroups(plan, store.get(), threads_, t, parent);
        r.instrsRecorded = t.counts.emulateInstrs;

        Span s(t.rec, "core.artifact_write", parent, t.pass, 0);
        core::BenchResult common;
        common.bench = c.name();
        common.addParam("campaign", json::Value(c.name()));
        common.addParam("campaign_hash", json::Value(c.contentHashHex()));
        common.addParam("execs", json::Value(c.execs()));
        common.addParam("seed", json::Value(static_cast<unsigned long long>(
                                    c.seed())));
        common.addParam("chunk_count", json::Value(c.chunkCount()));
        common.addParam("config_count", json::Value(c.configCount()));

        const std::size_t C = std::size_t(c.configCount());
        core::BenchResult art = common;
        for (int j : chunks) {
            core::BenchResult cr = common;
            cr.addParam("chunk", json::Value(j));
            cr.addParam("chunk_hash", json::Value(hex16(c.chunkHash(j))));
            const auto first = r.cells.begin() + std::ptrdiff_t(j * C);
            cr.addCells(std::vector<core::SweepCellResult>(
                first, first + std::ptrdiff_t(C)));
            for (const auto &cell : cr.cells)
                cr.stats.instrsReplayed += cell.traceInstrs;
            cr.stats.cellsRun = C;
            cr.hasStats = true;
            const std::string path = (chunkDir / c.chunkFileName(j)).string();
            core::saveResultFile(cr, path, false);
            t.counts.artifactBytes += fs::file_size(path);
            ++t.counts.chunks;
        }
        art.addCells(r.cells);
        for (const auto &cell : art.cells)
            art.stats.instrsReplayed += cell.traceInstrs;
        art.stats.cellsRun = art.cells.size();
        art.stats.instrsRecorded = r.instrsRecorded;
        art.stats.threads = t.threads;
        art.hasStats = true;
        art.hasInformational = true;
        const std::string path =
            (fs::path(artDir_) / ("BENCH_" + c.name() + ".json")).string();
        core::saveResultFile(art, path, true);
        t.counts.artifactBytes += fs::file_size(path);
        return r;
    }

    std::string file_;
    std::uint64_t seed_;
    int threads_;
    std::string seeded_, storeDir_, artDir_;
    std::unique_ptr<core::Campaign> campaign_;
};

/**
 * Digest check of every pass: against the committed reference when
 * one exists for this workload, seed and scale, else against the
 * first pass of the run.
 */
class Checker
{
  public:
    explicit Checker(std::optional<std::string> reference)
        : expected_(std::move(reference)), fromReference_(expected_)
    {}

    /// @return false on a mismatch (every cell of the pass fails).
    bool
    check(const char *what, const PassResult &r, std::size_t cells)
    {
        hostperf::CellDigest d;
        for (const auto &c : r.cells)
            d.add(c.sim, c.mix, c.traceInstrs);
        attempted_ += cells;
        if (!expected_)
            expected_ = d.hex();
        const bool ok = d.cells() == cells && d.hex() == *expected_;
        if (!ok) {
            failed_ += cells;
            std::fprintf(stderr,
                         "hostperf: %s digest %s over %zu cells, expected "
                         "%s over %zu (%s)\n",
                         what, d.hex().c_str(), d.cells(),
                         expected_->c_str(), cells,
                         fromReference_ ? "reference" : "first pass");
        }
        last_ = d.hex();
        return ok;
    }

    /// A pass that threw: every cell it should have produced fails.
    void
    fail(std::size_t cells)
    {
        attempted_ += cells;
        failed_ += cells;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::string &lastDigest() const { return last_; }
    bool fromReference() const { return fromReference_; }

  private:
    std::optional<std::string> expected_;
    bool fromReference_;
    std::string last_;
    std::uint64_t attempted_ = 0, failed_ = 0;
};

/// The reference digest for (workload, seed, execs), if committed.
/// @throws std::runtime_error on an unreadable or malformed file.
std::optional<std::string>
loadReference(const std::string &path, const std::string &workload,
              std::uint64_t seed, int execs)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference file " + path);
    std::ostringstream text;
    text << in.rdbuf();
    const json::Value doc = json::parse(text.str());
    const json::Value *e = doc.asObject().find(workload);
    if (!e)
        return std::nullopt;
    const auto &o = e->asObject();
    const json::Value *s = o.find("seed");
    const json::Value *x = o.find("execs");
    const json::Value *d = o.find("digest");
    if (!s || !x || !d)
        throw std::runtime_error("reference entry " + workload +
                                 " is incomplete");
    if (s->asUint() != seed || x->asInt() != execs)
        return std::nullopt;
    return d->asString();
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    }
    return "unknown";
}

std::string
compilerId()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/// One reported metric.
struct Metric {
    std::string name;
    double value;
    const char *unit;
};

std::string
formatNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/// Per-layer values of one traced pass.
struct LayerSample {
    bool setup = false;
    std::map<std::string, double> self;  //!< span name -> summed self time
    double busyRatio = 0;
    double unattributed = 0;
    const LayerCounts *counts = nullptr;
};

std::vector<LayerSample>
layerSamples(const std::vector<hostperf::SpanRecord> &spans,
             const std::vector<std::unique_ptr<Tracer>> &tracers)
{
    const std::vector<double> self = hostperf::selfTimes(spans);
    std::map<int, LayerSample> byPass;
    std::map<int, double> structural, total, busy;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        byPass[s.pass].self[s.name] += self[i];
        total[s.pass] += self[i];
        if (s.name == "pass" || s.name == "setup" || s.name == "core.worker" ||
            s.name == "core.group")
            structural[s.pass] += self[i];
        if (s.name == "core.group")
            busy[s.pass] += s.duration();
    }
    std::vector<LayerSample> out;
    for (const auto &t : tracers) {
        LayerSample ls = byPass[t->pass];
        ls.setup = t->setup;
        ls.counts = &t->counts;
        ls.busyRatio = ratio(busy[t->pass], t->threads * t->wall);
        ls.unattributed = ratio(structural[t->pass], total[t->pass]);
        out.push_back(std::move(ls));
    }
    return out;
}

/**
 * Median over traced passes of @p fn for the layer whose spans are
 * named @p span: taken over the timed passes where the layer ran, else
 * over the set-up passes where it ran (fig9_warm only emulates and
 * encodes while priming its store), else 0.
 */
template <class Fn>
double
layerMetric(const std::vector<LayerSample> &samples, const std::string &span,
            Fn fn)
{
    for (bool setup : {false, true}) {
        std::vector<double> v;
        for (const auto &s : samples) {
            auto it = s.self.find(span);
            if (s.setup == setup && it != s.self.end())
                v.push_back(fn(s, it->second));
        }
        if (!v.empty())
            return hostperf::median(v);
    }
    return 0;
}

std::vector<Metric>
perLayerMetrics(const std::vector<LayerSample> &samples,
                const std::vector<core::SweepCellResult> &cells,
                double overhead)
{
    std::vector<Metric> m;
    auto add = [&](std::string name, double v, const char *unit) {
        m.push_back({std::move(name), v, unit});
    };
    auto selfOf = [](const LayerSample &, double self) { return self; };

    add("h264.emulate_s", layerMetric(samples, "h264.emulate", selfOf), "s");
    add("h264.emulate_minstr_s",
        layerMetric(samples, "h264.emulate",
                    [](const LayerSample &s, double self) {
                        return ratio(double(s.counts->emulateInstrs), self) /
                               1e6;
                    }),
        "Minstr/s");
    add("trace.encode_s", layerMetric(samples, "trace.encode", selfOf), "s");
    add("trace.encode_mb_s",
        layerMetric(samples, "trace.encode",
                    [](const LayerSample &s, double self) {
                        return ratio(double(s.counts->bytesWritten), self) /
                               1e6;
                    }),
        "MB/s");
    add("trace.bytes_written",
        layerMetric(samples, "trace.encode",
                    [](const LayerSample &s, double) {
                        return double(s.counts->bytesWritten);
                    }),
        "bytes");
    add("trace.open_s", layerMetric(samples, "trace.open", selfOf), "s");
    add("trace.opens",
        layerMetric(samples, "trace.open",
                    [](const LayerSample &s, double) {
                        return double(s.counts->hits);
                    }),
        "count");
    add("trace.store_hit_ratio",
        layerMetric(samples, "trace.open",
                    [](const LayerSample &s, double) {
                        return ratio(double(s.counts->hits),
                                     double(s.counts->probes));
                    }),
        "ratio");
    add("trace.decode_s", layerMetric(samples, "trace.decode", selfOf), "s");
    add("trace.decode_mb_s",
        layerMetric(samples, "trace.decode",
                    [](const LayerSample &s, double self) {
                        return ratio(double(s.counts->decodeBytes), self) /
                               1e6;
                    }),
        "MB/s");
    for (const char *kind : {"pipeline", "batched", "mixed"}) {
        const std::string span = std::string("timing.") + kind;
        auto tally = [span](const LayerSample &s) {
            auto it = s.counts->timing.find(span);
            return it == s.counts->timing.end() ? TimingTally{} : it->second;
        };
        add(span + "_s", layerMetric(samples, span, selfOf), "s");
        add(span + "_mcell_instr_s",
            layerMetric(samples, span,
                        [&](const LayerSample &s, double self) {
                            return ratio(double(tally(s).cellInstrs), self) /
                                   1e6;
                        }),
            "Mcell-instr/s");
        add(span + "_ns_per_sim_cycle",
            layerMetric(samples, span,
                        [&](const LayerSample &s, double self) {
                            return ratio(self * 1e9,
                                         double(tally(s).simCycles));
                        }),
            "ns");
    }
    add("core.plan_s", layerMetric(samples, "core.plan", selfOf), "s");
    add("core.artifact_write_s",
        layerMetric(samples, "core.artifact_write", selfOf), "s");
    add("core.artifact_bytes",
        layerMetric(samples, "core.artifact_write",
                    [](const LayerSample &s, double) {
                        return double(s.counts->artifactBytes);
                    }),
        "bytes");
    add("core.chunks_published",
        layerMetric(samples, "core.artifact_write",
                    [](const LayerSample &s, double) {
                        return double(s.counts->chunks);
                    }),
        "count");
    add("core.worker_busy_ratio",
        layerMetric(samples, "core.worker",
                    [](const LayerSample &s, double) { return s.busyRatio; }),
        "ratio");

    timing::SimResult sum;
    for (const auto &c : cells) {
        sum.cycles += c.sim.cycles;
        sum.instrs += c.sim.instrs;
        sum.l1dAccesses += c.sim.l1dAccesses;
        sum.l1dMisses += c.sim.l1dMisses;
        sum.l2Misses += c.sim.l2Misses;
        sum.unalignedVecOps += c.sim.unalignedVecOps;
        sum.lineCrossings += c.sim.lineCrossings;
    }
    add("timing.sim_cycles", double(sum.cycles), "cycles");
    add("timing.sim_instrs", double(sum.instrs), "count");
    add("mem.l1d_accesses", double(sum.l1dAccesses), "count");
    add("mem.l1d_misses", double(sum.l1dMisses), "count");
    add("mem.l2_misses", double(sum.l2Misses), "count");
    add("timing.unaligned_vec_ops", double(sum.unalignedVecOps), "count");
    add("timing.line_crossings", double(sum.lineCrossings), "count");
    add("trace_overhead_ratio", overhead, "ratio");
    add("unattributed_ratio",
        layerMetric(samples, "pass",
                    [](const LayerSample &s, double) { return s.unattributed; }),
        "ratio");
    return m;
}

/// Print per-layer tail percentiles of span durations (the percentile
/// rule, with its sample count).
void
printSpanTails(const std::vector<hostperf::SpanRecord> &spans)
{
    std::map<std::string, std::vector<double>> byName;
    for (const auto &s : spans)
        byName[s.name].push_back(s.duration());
    for (const auto &[name, v] : byName) {
        const auto tail = hostperf::tailPercentile(v);
        if (tail) {
            std::printf("  span %-22s median %.6f s  p%g %.6f s  (n=%zu, "
                        "%zu beyond)\n",
                        name.c_str(), hostperf::median(v), tail->percentile,
                        tail->value, tail->samples, tail->beyond);
        } else {
            std::printf("  span %-22s median %.6f s  (n=%zu, too few for "
                        "a tail percentile)\n",
                        name.c_str(), hostperf::median(v), v.size());
        }
    }
}

/// Removes the per-process work directory on every exit path.
class WorkDir
{
  public:
    explicit WorkDir(fs::path p) : path_(std::move(p))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

int
run(const Options &o)
{
    const WorkloadInfo *info = nullptr;
    for (const auto &w : kWorkloads) {
        if (o.workload == w.name)
            info = &w;
    }
    if (!info)
        usageError("unknown workload \"" + o.workload + "\"");
    const int threads = info->threads;

    WorkDir work(fs::path(kWorkDir) /
                 (o.workload + "-" + std::to_string(::getpid())));
    std::unique_ptr<Workload> w;
    if (o.workload == "fig9_warm")
        w = std::make_unique<Fig9Warm>(info->execs, o.seed, threads,
                                       work.path());
    else if (o.workload == "table3_cold")
        w = std::make_unique<Table3Cold>(info->execs, o.seed, threads,
                                         work.path());
    else
        w = std::make_unique<CampaignMixed>(kCampaign, o.seed, threads,
                                            work.path());
    auto hostScale = [] {
        return kProbeReference / hostperf::probeSeconds();
    };

    SpanRecorder recorder;
    std::vector<std::unique_ptr<Tracer>> tracers;
    auto newTracer = [&](bool setup) {
        auto t = std::make_unique<Tracer>();
        t->rec = &recorder;
        t->pass = int(tracers.size()) + 1;
        t->setup = setup;
        tracers.push_back(std::move(t));
        return tracers.back().get();
    };

    std::vector<double> setupSecs, setupScaled;
    std::uint64_t setupRecorded = 0;
    std::optional<Checker> checker;
    double setupTotal = 0;
    for (std::size_t rep = 0;
         rep < kMaxSetupReps &&
         (rep < kMinSetupReps || setupTotal < kSetupBudget);
         ++rep) {
        const double scale = hostScale();
        Tracer *t = o.trace ? newTracer(true) : nullptr;
        SetupResult s = w->setup(t);
        if (t)
            t->wall = s.seconds;
        if (!checker) {
            checker.emplace(
                loadReference(kReference, o.workload, o.seed, w->execs()));
        }
        setupSecs.push_back(s.seconds);
        setupScaled.push_back(s.seconds * scale);
        setupTotal += s.seconds;
        setupRecorded = s.recorded;
        std::printf("setup %zu: %.4f s (host scale %.3f), %llu records "
                    "emulated\n",
                    rep + 1, s.seconds, scale,
                    static_cast<unsigned long long>(s.recorded));
        if (s.warmup)
            checker->check("warm-up pass", *s.warmup, w->cellCount());
    }

    // Host fingerprint and workload parameters: numbers from other
    // hosts or scales are not comparable with these.
    std::string fp = "{";
    fp += "\"cpu_model\":" + hostperf::jsonQuote(cpuModel());
    fp += ",\"nproc\":" +
          std::to_string(std::thread::hardware_concurrency());
    fp += ",\"compiler\":" + hostperf::jsonQuote(compilerId());
    fp += ",\"build_type\":" + hostperf::jsonQuote(HOSTPERF_BUILD_TYPE);
    fp += ",\"git_commit\":" + hostperf::jsonQuote(o.commit);
    fp += ",\"workload\":" + hostperf::jsonQuote(o.workload);
    fp += ",\"seed\":" + std::to_string(o.seed);
    fp += ",\"execs\":" + std::to_string(w->execs());
    fp += ",\"threads\":" + std::to_string(threads);
    fp += ",\"probe_reference_s\":" + formatNumber(kProbeReference);
    fp += ",\"cells\":" + std::to_string(w->cellCount());
    fp += ",\"seconds\":" + formatNumber(o.seconds);
    fp += ",\"trace\":" + std::to_string(int(o.trace)) + "}";
    std::printf("fingerprint %s\n", fp.c_str());

    // Timed passes, back to back. Traced runs alternate untraced and
    // traced passes so host drift hits both alike.
    std::vector<PassResult> plain;
    std::vector<double> walls, wallsScaled, cpusScaled, tracedScaled;
    std::vector<core::SweepCellResult> lastTracedCells;
    const auto start = hostperf::Clock::now();
    for (int i = 0;; ++i) {
        const bool traced = o.trace && i % 2 == 1;
        const bool enough = plain.size() >= kMinPasses &&
                            (!o.trace || tracedScaled.size() >= kMinPasses);
        if (enough && hostperf::secondsSince(start) >= o.seconds)
            break;
        const double scale = hostScale();
        Tracer *t = traced ? newTracer(false) : nullptr;
        PassResult r;
        try {
            r = w->pass(t);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "hostperf: pass %d threw: %s\n", i + 1,
                         e.what());
            checker->fail(w->cellCount());
            break;
        }
        const bool ok = checker->check(traced ? "traced pass" : "pass", r,
                                       w->cellCount());
        std::printf("pass %d%s: wall %.4f s  cpu %.4f s  (host scale %.3f)  "
                    "digest %s %s\n",
                    i + 1, traced ? " (traced)" : "", r.wall, r.cpu, scale,
                    checker->lastDigest().c_str(), ok ? "ok" : "MISMATCH");
        if (t) {
            t->wall = r.wall;
            tracedScaled.push_back(r.wall * scale);
            lastTracedCells = r.cells;
        } else {
            walls.push_back(r.wall);
            wallsScaled.push_back(r.wall * scale);
            cpusScaled.push_back(r.cpu * scale);
            plain.push_back(std::move(r));
        }
    }

    // Times are medians of host-scaled samples (see kProbeReference).
    // Record counts are the same in every pass, so a rate is the count
    // over the median time.
    const double wallMedian = hostperf::median(wallsScaled);
    const double setupMedian = hostperf::median(setupScaled);
    const PassResult none;
    const PassResult &any = plain.empty() ? none : plain.front();

    std::vector<Metric> metrics;
    if (!o.trace) {
        metrics = {
            {"setup_s", setupMedian, "s"},
            {"wall_s", wallMedian, "s"},
            {"cpu_s", hostperf::median(cpusScaled), "s"},
            // Passes that record nothing (the warm replay) report the
            // recording rate of set-up, where their store was filled.
            {"record_minstr_s",
             any.instrsRecorded > 0
                 ? ratio(double(any.instrsRecorded), wallMedian) / 1e6
                 : ratio(double(setupRecorded), setupMedian) / 1e6,
             "Minstr/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
        // Simulator throughput is only defined where cells are
        // simulated; it is printed, not part of the result line.
        if (any.instrsReplayed > 0) {
            std::printf("sim_minstr_s (informational) %.6g Mcell-instr/s\n",
                        ratio(double(any.instrsReplayed), wallMedian) / 1e6);
        }
    } else {
        const auto spans = recorder.spans();
        const auto samples = layerSamples(spans, tracers);
        metrics = perLayerMetrics(
            samples, lastTracedCells,
            ratio(hostperf::median(tracedScaled), wallMedian));
        std::printf("per-span durations:\n");
        printSpanTails(spans);
        const std::string path =
            (fs::path(kWorkDir) /
             ("trace-" + o.workload + "-seed" + std::to_string(o.seed) +
              ".json"))
                .string();
        hostperf::writeChromeTrace(path, spans, fp);
        std::printf("wrote %zu spans to %s\n", spans.size(), path.c_str());
    }

    const auto tail = hostperf::tailPercentile(walls);
    std::printf("%zu untraced timed passes; wall median %.4f s scaled, "
                "%.4f s as measured; set-up median %.4f s scaled, %.4f s "
                "as measured",
                walls.size(), wallMedian, hostperf::median(walls),
                setupMedian, hostperf::median(setupSecs));
    if (tail)
        std::printf(", p%g %.4f s (%zu beyond)", tail->percentile,
                    tail->value, tail->beyond);
    else
        std::printf(" (fewer than 20 passes: no tail percentile)");
    std::printf("\n");

    std::string js = "{";
    bool first = true;
    for (const auto &m : metrics) {
        if (!hostperf::validMetricName(m.name))
            throw std::logic_error("invalid metric name " + m.name);
        std::printf("%-34s %22s %s\n", m.name.c_str(),
                    formatNumber(m.value).c_str(), m.unit);
        js += first ? "" : ", ";
        first = false;
        js += hostperf::jsonQuote(m.name) + ": {\"value\": " +
              formatNumber(m.value) +
              ", \"unit\": " + hostperf::jsonQuote(m.unit) + "}";
    }
    js += "}";
    const bool correct = checker->failed() == 0;
    std::printf("cell_fail_ratio %.17g (%llu failed of %llu cells "
                "attempted; digests checked against %s)\n",
                ratio(double(checker->failed()), double(checker->attempted())),
                static_cast<unsigned long long>(checker->failed()),
                static_cast<unsigned long long>(checker->attempted()),
                checker->fromReference() ? "the committed reference"
                                         : "the first pass");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(checker->attempted()),
                static_cast<unsigned long long>(checker->failed()),
                js.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostperf: %s\n", e.what());
        return 2;
    }
}
