/**
 * @file
 * The one checked file module: every file the library reads or
 * writes - trace store entries, result artifacts, campaign files -
 * goes through it, so no caller can drop a failed write on the floor
 * or publish a short file.
 *
 *  - File: open, write, seek, flush and close throw IoError, whose
 *    text ends with the errno text; read() and tell() return values
 *    the compiler will not let a caller ignore.
 *  - AtomicPublish: a file is written under a unique temporary name
 *    beside its destination and renamed onto it by commit(); a
 *    failed or abandoned publish removes the temporary, so readers
 *    see the old file or the whole new one, never a partial one.
 *  - readFile(): a whole file as a string.
 *
 * After its declarations this header poisons the raw stdio and
 * fstream file calls, so a translation unit that includes it cannot
 * make one by mistake. Public headers therefore never include it:
 * they forward-declare what they hold.
 */

#ifndef UASIM_TRACE_FILE_IO_HH
#define UASIM_TRACE_FILE_IO_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace uasim::trace {

/// A file operation that failed: what() names the operation and the
/// path and ends with the errno text.
struct IoError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// An open binary file. Every operation throws IoError on failure.
class File
{
  public:
    enum class Mode {
        Read,   //!< an existing file, from its start
        Write,  //!< created, or truncated if it exists
    };

    File(const std::string &path, Mode mode);
    File(const File &) = delete;
    File &operator=(const File &) = delete;

    /// Closes the file if close() was not called; a failure there
    /// goes unreported, so writers call close().
    ~File();

    void write(const void *data, std::size_t n);

    /**
     * Read up to @p n bytes into @p out.
     * @return the bytes read: fewer than @p n only at end of file.
     */
    [[nodiscard]] std::size_t read(void *out, std::size_t n);

    /// Move the position, as fseek() with @p whence.
    void seek(std::int64_t offset, int whence = SEEK_SET);

    /// The current position.
    [[nodiscard]] std::uint64_t tell();

    void flush();

    /// Flush and close. Idempotent; no other call is valid after it.
    void close();

    const std::string &path() const { return path_; }

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
};

/**
 * Publish a file atomically: write it at tempPath(), then commit()
 * renames it onto the destination. Until then - and when commit()
 * fails - the destructor removes the temporary. Temporary names are
 * unique per process and call, so concurrent writers of one
 * destination never share one; the last rename wins.
 */
class AtomicPublish
{
  public:
    /// Pick the temporary name for @p path; creates no file.
    explicit AtomicPublish(std::string path);
    AtomicPublish(const AtomicPublish &) = delete;
    AtomicPublish &operator=(const AtomicPublish &) = delete;
    ~AtomicPublish();

    const std::string &tempPath() const { return temp_; }

    /// Rename the temporary onto the destination. Idempotent.
    void commit();

  private:
    std::string path_;
    std::string temp_;
    bool committed_ = false;
};

/// Remove the temporaries AtomicPublish left in @p dir over an hour
/// ago (a killed writer's); younger ones may belong to a live writer.
/// Best effort; never throws.
void removeStaleTemps(const std::string &dir);

/// The whole content of @p path. @throws IoError, also when @p path
/// is a directory.
std::string readFile(const std::string &path);

} // namespace uasim::trace

// file_io.cc, the one translation unit that makes the raw calls,
// defines UASIM_FILE_IO_IMPL first. The pragma is GCC's, which Clang
// honours too; other compilers never see it.
#if defined(__GNUC__) && !defined(UASIM_FILE_IO_IMPL)
#pragma GCC poison fopen fread fwrite fseek ftell fflush fclose ifstream ofstream
#endif

#endif // UASIM_TRACE_FILE_IO_HH
