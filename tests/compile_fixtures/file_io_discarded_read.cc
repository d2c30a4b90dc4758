// Fails under -Werror=unused-result: File::read's byte count is
// [[nodiscard]], so a short read cannot pass unnoticed.

#include "trace/file_io.hh"

inline void
readHeader(uasim::trace::File &file, char (&head)[56])
{
    file.read(head, sizeof(head));
}
