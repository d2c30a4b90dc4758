#include "trace/addrmap.hh"

#include <utility>

namespace uasim::trace {

std::uint64_t
RankTable::insert(std::uint64_t key)
{
    if (2 * (size_ + 1) > slots_.size()) {
        std::vector<Slot> old(std::size_t{1} << ++bits_);
        std::swap(old, slots_);
        mask_ = slots_.size() - 1;
        for (const Slot &s : old) {
            if (s.rankPlus1 != 0)
                place(s);
        }
    }
    place({key, ++size_});
    return size_ - 1;
}

void
RankTable::place(const Slot &s)
{
    std::size_t i = home(s.key);
    while (slots_[i].rankPlus1 != 0)
        i = (i + 1) & mask_;
    slots_[i] = s;
}

} // namespace uasim::trace
