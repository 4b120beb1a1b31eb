#include "obs/metrics.hpp"

#include <cassert>
#include <charconv>
#include <cmath>

namespace mot3d::obs {

namespace {

// Shortest round-trip formatting (std::to_chars), so the exported time
// series is a deterministic function of the sampled doubles alone.
void write_number(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "null";
    return;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, res.ptr - buf);
}

void write_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\' << c;
    else os << c;
  }
}

}  // namespace

void MetricsRegistry::start_row(Cycle now) {
  assert(next_ == counters_.size() && "the previous row is incomplete");
  cycles_.push_back(now);
  next_ = 0;
}

void MetricsRegistry::put(std::string_view name, double value) {
  assert(!cycles_.empty() && "put() before start_row()");
  if (cycles_.size() == 1) counters_.push_back(Counter{std::string(name), {}});
  assert(next_ < counters_.size() && counters_[next_].name == name &&
         "a later row must put the first row's names in its order");
  counters_[next_++].series.push_back(value);
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\"cycles\":[";
  for (std::size_t s = 0; s < cycles_.size(); ++s) {
    if (s != 0) os << ',';
    os << cycles_[s];
  }
  os << "],\"counters\":{";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (i != 0) os << ',';
    os << "\n  \"";
    write_escaped(os, counters_[i].name);
    os << "\":[";
    for (std::size_t s = 0; s < counters_[i].series.size(); ++s) {
      if (s != 0) os << ',';
      write_number(os, counters_[i].series[s]);
    }
    os << ']';
  }
  os << "\n}}";
}

void MetricsRegistry::write_csv_rows(std::ostream& os,
                                     const std::string& run) const {
  for (std::size_t s = 0; s < cycles_.size(); ++s) {
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      os << run << ',' << cycles_[s] << ',' << counters_[i].name << ',';
      const double v = counters_[i].series[s];
      if (!std::isnan(v)) write_number(os, v);
      os << '\n';
    }
  }
}

}  // namespace mot3d::obs
