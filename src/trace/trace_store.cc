#include "trace/trace_store.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace uasim::trace {

namespace fs = std::filesystem;

namespace {

/// Process-unique suffix so concurrent writers (threads or separate
/// processes) never share a temporary file.
std::string
uniqueSuffix()
{
    static const std::uint64_t processTag = [] {
        std::random_device rd;
        return (std::uint64_t{rd()} << 32) ^ rd();
    }();
    static std::atomic<std::uint64_t> counter{0};
    char buf[48];
    std::snprintf(buf, sizeof(buf), ".tmp-%016llx-%llu",
                  static_cast<unsigned long long>(processTag),
                  static_cast<unsigned long long>(
                      counter.fetch_add(1, std::memory_order_relaxed)));
    return buf;
}

void
reportAndRemove(const std::string &path, const char *what,
                const std::string &detail)
{
    std::fprintf(stderr, "trace-store: %s %s (%s); discarding\n", what,
                 path.c_str(), detail.c_str());
    std::error_code ec;
    fs::remove(path, ec);  // best effort; a re-record overwrites it
}

/**
 * Run @p load on the entry at @p path under the store's corruption
 * policy. A missing entry, a key collision and a file that cannot be
 * opened or read (TraceIoError: EMFILE, EIO) are misses that keep the
 * file; any other failure is a content check that failed, so the
 * entry is reported and deleted. @return T{} on every miss.
 */
template <typename T, typename Load>
T
probeEntry(const std::string &path, Load &&load)
{
    std::error_code ec;
    if (!fs::exists(path, ec))
        return T{};
    try {
        return load(path);
    } catch (const TraceKeyMismatch &e) {
        std::fprintf(stderr, "trace-store: %s; treating as miss\n",
                     e.what());
    } catch (const TraceIoError &e) {
        std::fprintf(stderr, "trace-store: %s; treating as miss\n",
                     e.what());
    } catch (const std::exception &e) {
        reportAndRemove(path, "corrupt entry", e.what());
    }
    return T{};
}

} // namespace

TraceStore::TraceStore(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        throw std::runtime_error("TraceStore: empty cache directory");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        throw std::runtime_error("TraceStore: cannot create " + dir_ +
                                 ": " + ec.message());
    }
    if (!fs::is_directory(dir_, ec)) {
        throw std::runtime_error("TraceStore: " + dir_ +
                                 " is not a directory");
    }
    // Garbage-collect temporaries orphaned by killed writers. Only
    // old ones: a live writer in another process may legitimately
    // have an in-flight .tmp-* here right now.
    const auto cutoff =
        fs::file_time_type::clock::now() - std::chrono::hours(1);
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        if (entry.path().filename().string().find(".tmp-") ==
            std::string::npos)
            continue;
        std::error_code tec;
        if (fs::last_write_time(entry.path(), tec) < cutoff && !tec)
            fs::remove(entry.path(), tec);
    }
}

std::string
TraceStore::entryPath(const std::string &key) const
{
    char name[64];
    std::snprintf(name, sizeof(name), "tr-%016llx-v%u.uatrace",
                  static_cast<unsigned long long>(
                      wire::fnv1a(key.data(), key.size())),
                  wire::formatVersion);
    return (fs::path(dir_) / name).string();
}

std::optional<TraceSummary>
TraceStore::loadSummary(const std::string &key) const
{
    return probeEntry<std::optional<TraceSummary>>(
        entryPath(key),
        [&](const std::string &path) { return readTraceSummary(path, key); });
}

std::unique_ptr<TraceReader>
TraceStore::openReader(const std::string &key) const
{
    return probeEntry<std::unique_ptr<TraceReader>>(
        entryPath(key), [&](const std::string &path) {
            return std::make_unique<TraceReader>(path, key);
        });
}

void
TraceStore::discardEntry(const std::string &key,
                         const std::string &why) const
{
    reportAndRemove(entryPath(key), "corrupt entry", why);
}

std::unique_ptr<TraceStore::Recorder>
TraceStore::startRecord(const std::string &key) const
{
    std::string final_path = entryPath(key);
    std::string tmp_path = final_path + uniqueSuffix();
    try {
        return std::make_unique<Recorder>(tmp_path,
                                          std::move(final_path), key);
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "trace-store: cannot record entry for \"%s\": "
                     "%s; continuing uncached\n",
                     key.c_str(), e.what());
        return nullptr;
    }
}

TraceStore::Recorder::Recorder(const std::string &tmpPath,
                               std::string finalPath,
                               const std::string &key)
    : sink_(tmpPath, key), tmpPath_(tmpPath),
      finalPath_(std::move(finalPath))
{
}

TraceStore::Recorder::~Recorder()
{
    if (committed_)
        return;
    try {
        sink_.close();
    } catch (const std::exception &) {
        // close() already reports via its own failure text when the
        // destructor path swallows it; the file is removed below.
    }
    std::error_code ec;
    fs::remove(tmpPath_, ec);
}

void
TraceStore::Recorder::append(const InstrRecord &rec)
{
    if (!appendError_.empty())
        return;  // already failed; keep the record stream flowing
    try {
        sink_.append(rec);
    } catch (const std::exception &e) {
        // Do not throw into the caller's recording pass - the sweep
        // must finish uncached, not abort. commit() surfaces this.
        appendError_ = e.what();
    }
}

void
TraceStore::Recorder::commit()
{
    if (committed_)
        return;
    try {
        if (!appendError_.empty())
            throw std::runtime_error(appendError_);
        sink_.close();
        fs::rename(tmpPath_, finalPath_);  // atomic publish
    } catch (const std::exception &) {
        std::error_code ec;
        fs::remove(tmpPath_, ec);
        committed_ = true;  // nothing left to clean up in the dtor
        throw;
    }
    committed_ = true;
}

} // namespace uasim::trace
