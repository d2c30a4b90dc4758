#define UASIM_FILE_IO_IMPL
#include "trace/file_io.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <random>
#include <system_error>
#include <utility>

namespace uasim::trace {

namespace fs = std::filesystem;

namespace {

/// Marks a temporary name; removeStaleTemps() matches it.
constexpr const char *tempMarker = ".tmp-";

/// Throw for the failed @p op on @p path; call it right after the
/// failure, while errno still holds its cause.
[[noreturn]] void
fail(const char *op, const std::string &path)
{
    const int err = errno;
    throw IoError(std::string("cannot ") + op + " " + path + ": " +
                  std::strerror(err));
}

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
    std::snprintf(buf, sizeof(buf), "%s%016llx-%llu", tempMarker,
                  static_cast<unsigned long long>(processTag),
                  static_cast<unsigned long long>(
                      counter.fetch_add(1, std::memory_order_relaxed)));
    return buf;
}

} // namespace

File::File(const std::string &path, Mode mode)
    : file_(std::fopen(path.c_str(), mode == Mode::Read ? "rb" : "wb")),
      path_(path)
{
    if (!file_)
        fail("open", path_);
}

File::~File()
{
    if (file_)
        (void)std::fclose(file_);
}

void
File::write(const void *data, std::size_t n)
{
    if (n == 0)
        return;  // an empty buffer may have no address
    if (std::fwrite(data, 1, n, file_) != n)
        fail("write", path_);
}

std::size_t
File::read(void *out, std::size_t n)
{
    if (n == 0)
        return 0;  // an empty buffer may have no address
    const std::size_t got = std::fread(out, 1, n, file_);
    if (got != n && std::ferror(file_))
        fail("read", path_);
    return got;
}

void
File::seek(std::int64_t offset, int whence)
{
    if (std::fseek(file_, long(offset), whence) != 0)
        fail("seek in", path_);
}

std::uint64_t
File::tell()
{
    const long at = std::ftell(file_);
    if (at < 0)
        fail("find the position in", path_);
    return std::uint64_t(at);
}

void
File::flush()
{
    if (std::fflush(file_) != 0)
        fail("flush", path_);
}

void
File::close()
{
    if (file_ && std::fclose(std::exchange(file_, nullptr)) != 0)
        fail("close", path_);
}

AtomicPublish::AtomicPublish(std::string path)
    : path_(std::move(path)), temp_(path_ + uniqueSuffix())
{
}

AtomicPublish::~AtomicPublish()
{
    if (committed_)
        return;
    std::error_code ec;
    fs::remove(temp_, ec);  // best effort; it may never have existed
}

void
AtomicPublish::commit()
{
    if (committed_)
        return;
    if (std::rename(temp_.c_str(), path_.c_str()) != 0) {
        const int err = errno;
        throw IoError("cannot rename " + temp_ + " to " + path_ + ": " +
                      std::strerror(err));
    }
    committed_ = true;
}

void
removeStaleTemps(const std::string &dir)
{
    const auto cutoff =
        fs::file_time_type::clock::now() - std::chrono::hours(1);
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().filename().string().find(tempMarker) ==
            std::string::npos)
            continue;
        std::error_code tec;
        if (fs::last_write_time(entry.path(), tec) < cutoff && !tec)
            fs::remove(entry.path(), tec);
    }
}

std::string
readFile(const std::string &path)
{
    File file(path, File::Mode::Read);
    std::string text;
    char buf[1 << 16];
    while (const std::size_t n = file.read(buf, sizeof(buf)))
        text.append(buf, n);
    return text;
}

} // namespace uasim::trace
