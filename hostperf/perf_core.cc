#include "perf_core.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/result.hh"

namespace hostperf {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
probeLoop()
{
    constexpr int kSets = 1024, kWays = 4, kAccesses = 2000000;
    std::vector<std::array<std::uint64_t, kWays>> tags(kSets);
    std::vector<std::array<std::uint8_t, kWays>> age(kSets);
    std::uint64_t state = 12345, addr = 0, hits = 0;
    for (int i = 0; i < kAccesses; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        // Three in four accesses walk forward, the rest jump anywhere
        // in 64 MiB: enough of both to keep the branches unpredictable.
        if ((state >> 60) < 12)
            addr += 64 * ((state >> 40) & 7);
        else
            addr = (state >> 20) & ((1u << 26) - 1);
        const std::uint64_t line = addr >> 6;
        auto &t = tags[line % kSets];
        auto &a = age[line % kSets];
        const std::uint64_t tag = line / kSets;
        int way = -1;
        for (int k = 0; k < kWays; ++k) {
            if (t[k] == tag) {
                way = k;
                break;
            }
        }
        if (way >= 0) {
            ++hits;
        } else {
            way = 0;
            for (int k = 1; k < kWays; ++k) {
                if (a[k] > a[way])
                    way = k;
            }
            t[way] = tag;
        }
        for (int k = 0; k < kWays; ++k) {
            if (a[k] < 255)
                ++a[k];
        }
        a[way] = 0;
    }
    return hits;
}

double
probeSeconds()
{
    const auto t0 = Clock::now();
    // Using the count keeps the loop from being optimized away.
    if (probeLoop() == 0)
        throw std::logic_error("host probe counted no hits");
    return secondsSince(t0);
}

std::vector<double>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<int, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);

    // Child intervals of each span, clipped to the parent.
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const SpanRecord &s : spans) {
        auto it = index.find(s.parent);
        if (it == index.end())
            continue;
        const SpanRecord &p = spans[it->second];
        const double lo = std::max(s.start, p.start);
        const double hi = std::min(s.end, p.end);
        if (hi > lo)
            kids[it->second].emplace_back(lo, hi);
    }

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, curLo = 0, curHi = 0;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        self[i] = std::max(0.0, spans[i].duration() - covered);
    }
    return self;
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

int
SpanRecorder::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

double
SpanRecorder::now() const
{
    return secondsSince(epoch_);
}

void
SpanRecorder::add(SpanRecord rec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(rec));
}

std::vector<SpanRecord>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Span::Span(SpanRecorder *rec, const char *name, int parent, int pass,
           int tid)
    : recorder_(rec)
{
    rec_.id = -1;
    if (!recorder_)
        return;
    rec_.name = name;
    rec_.id = recorder_->nextId();
    rec_.parent = parent;
    rec_.pass = pass;
    rec_.tid = tid;
    rec_.start = recorder_->now();
}

Span::~Span()
{
    if (!recorder_)
        return;
    rec_.end = recorder_->now();
    recorder_->add(std::move(rec_));
}

std::optional<TailPercentile>
tailPercentile(std::vector<double> samples)
{
    static constexpr double ladder[] = {99.9, 99, 90, 50};
    const std::size_t n = samples.size();
    std::sort(samples.begin(), samples.end());
    for (double p : ladder) {
        // Nearest rank: the smallest 1-based rank r with r >= p% of n.
        const auto rank =
            std::size_t(std::ceil(p / 100.0 * double(n) - 1e-9));
        if (rank == 0 || n - rank < 10)
            continue;
        return TailPercentile{p, samples[rank - 1], n, n - rank};
    }
    return std::nullopt;
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

void
CellDigest::mixIn(std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        state_ ^= (v >> (8 * b)) & 0xff;
        state_ *= 0x100000001b3ull;
    }
}

void
CellDigest::add(const uasim::timing::SimResult &sim,
                const uasim::trace::InstrMix &mix,
                std::uint64_t traceInstrs)
{
    for (const auto &f : uasim::core::simResultFields())
        mixIn(sim.*(f.member));
    for (int c = 0; c < uasim::trace::numInstrClasses; ++c)
        mixIn(mix.count(static_cast<uasim::trace::InstrClass>(c)));
    mixIn(traceInstrs);
    ++cells_;
}

std::string
CellDigest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(state_));
    return buf;
}

std::string
jsonQuote(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

void
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans,
                 const std::string &metadataJson)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot create " + path);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"metadata\":";
    out += metadataJson;
    out += ",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        if (i)
            out += ',';
        out += "\n{\"name\":";
        out += jsonQuote(s.name);
        std::snprintf(buf, sizeof buf,
                      ",\"cat\":\"hostperf\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%d,\"parent\":%d,\"pass\":%d}}",
                      s.tid, s.start * 1e6, s.duration() * 1e6, s.id,
                      s.parent, s.pass);
        out += buf;
    }
    out += "\n]}\n";
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    if (std::fclose(f) != 0 || !ok)
        throw std::runtime_error("cannot write " + path);
}

} // namespace hostperf
