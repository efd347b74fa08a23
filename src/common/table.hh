/**
 * @file
 * Aligned ASCII table and CSV output: the `ltp` driver's result tables
 * (one per scenario view, see renderViews in sim/report.hh).
 */

#ifndef LTP_COMMON_TABLE_HH
#define LTP_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace ltp {

/** Column-aligned text table with an optional CSV rendering. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format a double with @p precision digits. */
    static std::string num(double v, int precision = 2);

    /** Convenience: "+x.x%" style percentage cell. */
    static std::string pct(double v, int precision = 1);

    /** Render with padded columns, a header rule, and `|` separators. */
    std::string toString() const;

    /** Render as comma-separated values (for EXPERIMENTS.md capture). */
    std::string toCsv() const;

    /** Print toString() to stdout with a title line. */
    void print(const std::string &title) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace ltp

#endif // LTP_COMMON_TABLE_HH
