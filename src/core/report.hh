/**
 * @file
 * Plain-text table formatting for the benchmark binaries.
 */

#ifndef UASIM_CORE_REPORT_HH
#define UASIM_CORE_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace uasim::core {

/**
 * Minimal fixed-width table builder: add a header row, then data
 * rows; print() pads columns to fit.
 */
class TextTable
{
  public:
    /// Set the header row.
    void header(std::vector<std::string> cells);

    /// Append one data row.
    void row(std::vector<std::string> cells);

    /// Render with aligned columns (first column left, rest right).
    std::string str() const;

  private:
    std::vector<std::vector<std::string>> rows_;
    bool hasHeader_ = false;
};

/// Format @p v with @p prec decimals.
std::string fmt(double v, int prec = 2);

/// Format an integer with thousands separators (Table III style).
std::string fmtCount(std::uint64_t v);

} // namespace uasim::core

#endif // UASIM_CORE_REPORT_HH
