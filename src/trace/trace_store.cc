#include "trace/trace_store.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "trace/file_io.hh"

namespace uasim::trace {

namespace fs = std::filesystem;

namespace {

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
 * opened or read (IoError: EMFILE, EIO) are misses that keep the
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
    } catch (const IoError &e) {
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
    // Garbage-collect temporaries orphaned by killed writers.
    removeStaleTemps(dir_);
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
    try {
        return std::make_unique<Recorder>(entryPath(key), key);
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "trace-store: cannot record entry for \"%s\": "
                     "%s; continuing uncached\n",
                     key.c_str(), e.what());
        return nullptr;
    }
}

void
TraceStore::publish(const std::string &key, const EncodedTrace &trace) const
{
    const std::string head = wire::frontMatter(
        key, trace.mix(), trace.payloadBytes(),
        wire::payloadHash(trace.payload(), trace.payloadBytes()));
    AtomicPublish entry(entryPath(key));
    File file(entry.tempPath(), File::Mode::Write);
    file.write(head.data(), head.size());
    file.write(trace.payload(), trace.payloadBytes());
    file.close();
    entry.commit();
}

TraceStore::Recorder::Recorder(std::string entryPath,
                               const std::string &key)
    : key_(key),
      publish_(std::make_unique<AtomicPublish>(std::move(entryPath))),
      buffer_(std::make_unique_for_overwrite<std::uint8_t[]>(
          writeBufferBytes + wire::RecordEncoder::maxRecordBytes))
{
    // Placeholder front matter, patched by commit(); it throws on a
    // key too long for the format before any file is created.
    const std::string head = wire::frontMatter(key_, mix_, 0, 0);
    file_ = std::make_unique<File>(publish_->tempPath(), File::Mode::Write);
    file_->write(head.data(), head.size());
}

TraceStore::Recorder::~Recorder() = default;

void
TraceStore::Recorder::drop()
{
    error_ = std::current_exception();
    file_.reset();
    publish_.reset();
}

void
TraceStore::Recorder::flush(bool last)
{
    const std::size_t n = last ? fill_ : fill_ & ~std::size_t{7};
    if (n == 0)
        return;
    payloadHash_ = wire::payloadHash(buffer_.get(), n, payloadHash_);
    try {
        file_->write(buffer_.get(), n);
    } catch (...) {
        drop();
        return;
    }
    payloadBytes_ += n;
    fill_ -= n;
    std::memmove(buffer_.get(), buffer_.get() + n, fill_);
}

void
TraceStore::Recorder::commit()
{
    if (file_)
        flush(true);
    if (file_) {
        // Header, key and mix section are contiguous from offset 0, so
        // one seek patches them all. The payload is flushed first, so
        // a failure cannot leave a valid-looking header over a
        // truncated payload.
        try {
            const std::string head =
                wire::frontMatter(key_, mix_, payloadBytes_, payloadHash_);
            file_->flush();
            file_->seek(0);
            file_->write(head.data(), head.size());
            file_->close();
            file_.reset();
            publish_->commit();
        } catch (...) {
            drop();
        }
    }
    if (error_)
        std::rethrow_exception(error_);
}

} // namespace uasim::trace
