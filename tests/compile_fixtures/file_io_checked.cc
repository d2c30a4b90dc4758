// Compiles: the checked file module's calls, with every result used.

#include <cstdint>
#include <string>

#include "trace/file_io.hh"

using uasim::trace::AtomicPublish;
using uasim::trace::File;

inline std::uint64_t
copyHeader(File &in, const std::string &out)
{
    char head[56];
    if (in.read(head, sizeof(head)) != sizeof(head))
        return 0;
    AtomicPublish publish(out);
    File file(publish.tempPath(), File::Mode::Write);
    file.write(head, sizeof(head));
    const std::uint64_t at = file.tell();
    file.close();
    publish.commit();
    return at;
}
