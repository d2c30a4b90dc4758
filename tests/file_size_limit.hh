/**
 * @file
 * Write-failure injection for tests: while a FileSizeLimit lives, this
 * process cannot grow any regular file (RLIMIT_FSIZE 0), so every file
 * write fails with EFBIG - on any host, unlike /dev/full. SIGXFSZ is
 * ignored meanwhile, so the failing write returns instead of killing
 * the process. The destructor restores both.
 */

#ifndef UASIM_TESTS_FILE_SIZE_LIMIT_HH
#define UASIM_TESTS_FILE_SIZE_LIMIT_HH

#include <csignal>

#include <sys/resource.h>

class FileSizeLimit
{
  public:
    FileSizeLimit()
    {
        oldHandler_ = std::signal(SIGXFSZ, SIG_IGN);
        if (::getrlimit(RLIMIT_FSIZE, &saved_) != 0)
            return;
        rlimit none = saved_;
        none.rlim_cur = 0;
        lowered_ = ::setrlimit(RLIMIT_FSIZE, &none) == 0;
    }

    ~FileSizeLimit()
    {
        if (lowered_)
            ::setrlimit(RLIMIT_FSIZE, &saved_);
        std::signal(SIGXFSZ, oldHandler_);
    }

    FileSizeLimit(const FileSizeLimit &) = delete;
    FileSizeLimit &operator=(const FileSizeLimit &) = delete;

    /// True when file writes now fail.
    bool active() const { return lowered_; }

  private:
    rlimit saved_{};
    bool lowered_ = false;
    void (*oldHandler_)(int) = SIG_DFL;
};

#endif // UASIM_TESTS_FILE_SIZE_LIMIT_HH
