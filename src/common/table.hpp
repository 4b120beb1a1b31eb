// Plain-text table rendering for the scenario presenters.
//
// The paper's figures are bar charts over (benchmark x configuration); every
// scenario prints the corresponding series as an aligned text table plus
// normalised columns, so EXPERIMENTS.md can quote the rows directly.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace mot3d {

/// Column-aligned text table with a title, header row and string cells.
class TextTable {
 public:
  explicit TextTable(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> header) { header_ = std::move(header); }
  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  /// Render with column widths fitted to content.
  void print(std::ostream& os) const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers used by benches: fixed-precision double and percentages.
std::string fmt_fixed(double v, int precision);
std::string fmt_percent(double fraction, int precision = 1);

}  // namespace mot3d
