// Fixed-width console table printer.
//
// bench/suite regenerates the paper's tables/figures; this printer
// renders them in a uniform, diff-friendly format.
#ifndef CPI_SRC_SUPPORT_TABLE_H_
#define CPI_SRC_SUPPORT_TABLE_H_

#include <string>
#include <vector>

namespace cpi {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Appends a row; the row must have exactly as many cells as there are
  // headers.
  void AddRow(std::vector<std::string> cells);

  // Inserts a horizontal separator before the next added row.
  void AddSeparator();

  // Renders the whole table, including a header separator.
  std::string ToString() const;

  // Convenience: renders and writes to stdout.
  void Print() const;

  // Formats a double as e.g. "3.1%" (one decimal place, with sign for
  // negatives).
  static std::string FormatPercent(double value);
  static std::string FormatDouble(double value, int decimals);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;  // empty row == separator
};

}  // namespace cpi

#endif  // CPI_SRC_SUPPORT_TABLE_H_
