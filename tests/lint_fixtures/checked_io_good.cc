// Known-good [checked-io]: every return value is checked, returned,
// or explicitly discarded with (void).

#include <cstdio>

inline bool
teardown(std::FILE *f)
{
    if (std::fwrite("x", 1, 1, f) != 1)
        return false;
    (void)std::fflush(f);
    const int rc = std::fclose(f);
    return rc == 0;
}
