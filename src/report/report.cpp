#include "report/report.hpp"

#include "util/error.hpp"
#include "util/table.hpp"

namespace bvl::report {

Cell Cell::txt(std::string t) {
  Cell c;
  c.kind = Kind::kText;
  c.text = std::move(t);
  return c;
}

Cell Cell::num(double v, std::string t) {
  Cell c;
  c.kind = Kind::kNumber;
  c.text = std::move(t);
  c.value = v;
  return c;
}

Cell Cell::missing() { return {Kind::kMissing, "-", 0}; }

Cell fixed(double v, int precision) { return Cell::num(v, fmt_fixed(v, precision)); }

Cell fixed(double v, int precision, const std::string& suffix) {
  return Cell::num(v, fmt_fixed(v, precision) + suffix);
}

Cell sci(double v) { return Cell::num(v, fmt_sci(v)); }

Cell num(double v) { return Cell::num(v, fmt_num(v)); }

Cell num(double v, const std::string& suffix) { return Cell::num(v, fmt_num(v) + suffix); }

Table::Table(std::string table_name, std::vector<std::string> cols)
    : name(std::move(table_name)), columns(std::move(cols)) {
  require(!columns.empty(), "report::Table: no columns");
}

void Table::add_row(std::vector<Cell> cells) {
  require(cells.size() == columns.size(), "report::Table: row width mismatch");
  rows.push_back(std::move(cells));
}

void Report::text(std::string s) {
  Block b;
  b.kind = Block::Kind::kText;
  b.text = std::move(s);
  blocks.push_back(std::move(b));
}

void Report::add(Table t) {
  Block b;
  b.kind = Block::Kind::kTable;
  b.table = std::move(t);
  blocks.push_back(std::move(b));
}

void Report::check(const std::string& name, bool passed, const std::string& detail) {
  checks.push_back({name, passed, detail});
}

int Report::failed_checks() const {
  int n = 0;
  for (const auto& c : checks) n += c.passed ? 0 : 1;
  return n;
}

}  // namespace bvl::report
