#include "core/report.hh"

#include <iomanip>
#include <sstream>

namespace uasim::core {

void
TextTable::header(std::vector<std::string> cells)
{
    rows_.insert(rows_.begin(), std::move(cells));
    hasHeader_ = true;
}

void
TextTable::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
TextTable::str() const
{
    std::vector<std::size_t> width;
    for (const auto &r : rows_) {
        if (width.size() < r.size())
            width.resize(r.size(), 0);
        for (std::size_t i = 0; i < r.size(); ++i)
            width[i] = std::max(width[i], r[i].size());
    }
    std::ostringstream os;
    for (std::size_t ri = 0; ri < rows_.size(); ++ri) {
        const auto &r = rows_[ri];
        for (std::size_t i = 0; i < r.size(); ++i) {
            if (i)
                os << "  ";
            if (i == 0)
                os << std::left << std::setw(int(width[i])) << r[i];
            else
                os << std::right << std::setw(int(width[i])) << r[i];
        }
        os << '\n';
        if (ri == 0 && hasHeader_) {
            std::size_t total = 0;
            for (std::size_t i = 0; i < width.size(); ++i)
                total += width[i] + (i ? 2 : 0);
            os << std::string(total, '-') << '\n';
        }
    }
    return os.str();
}

std::string
fmt(double v, int prec)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(prec) << v;
    return os.str();
}

std::string
fmtCount(std::uint64_t v)
{
    std::string raw = std::to_string(v);
    std::string out;
    int count = 0;
    for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
        if (count && count % 3 == 0)
            out.insert(out.begin(), ',');
        out.insert(out.begin(), *it);
        ++count;
    }
    return out;
}

} // namespace uasim::core
