// Fails with "poisoned": once the checked file module is included, a
// raw stdio file call does not compile, checked or not.

#include <cstdio>

#include "trace/file_io.hh"

inline bool
closeRaw(std::FILE *f)
{
    return std::fclose(f) == 0;
}
