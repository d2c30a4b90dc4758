// Known-bad [checked-io]: discarded fwrite/fclose returns, the
// second in an unbraced if-body (a statement-position discard the
// rule must still see).

#include <cstdio>

inline void
teardown(std::FILE *f)
{
    std::fwrite("x", 1, 1, f);
    if (f)
        std::fclose(f);
}
