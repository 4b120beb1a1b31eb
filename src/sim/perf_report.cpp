#include "sim/perf_report.hpp"

#include <charconv>
#include <cmath>
#include <fstream>

namespace mot3d::sim {

namespace {

/// Appends `s` escaped.  Runs of characters that need no escape are
/// copied with one append each; bytes >= 0x80 pass through unchanged.
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // first character not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

/// Appends `s` as a JSON string literal: quoted and escaped.
void append_string(std::string& out, std::string_view s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

/// Shortest round-trip formatting; a non-finite value writes 0.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace

std::string json_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

std::string json_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_string(out, s);
  return out;
}

std::string& JsonObject::field(std::string_view key) {
  if (text_.size() > 1) text_ += ", ";
  append_string(text_, key);
  text_ += ": ";
  return text_;
}

JsonObject& JsonObject::set(std::string_view key, std::string_view value) {
  append_string(field(key), value);
  return *this;
}

JsonObject& JsonObject::set(std::string_view key, double value) {
  append_number(field(key), value);
  return *this;
}

JsonObject& JsonObject::set(std::string_view key, std::uint64_t value) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  field(key).append(buf, res.ptr);
  return *this;
}

JsonObject& JsonObject::set(std::string_view key, bool value) {
  field(key) += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::set_raw(std::string_view key, std::string_view raw_json) {
  field(key) += raw_json;
  return *this;
}

JsonObject& JsonObject::merge(const JsonObject& other) {
  if (other.text_.size() == 1) return *this;
  if (text_.size() > 1) text_ += ", ";
  text_.append(other.text_, 1);
  return *this;
}

std::string JsonObject::str() const& {
  std::string out;
  out.reserve(text_.size() + 1);
  out += text_;
  out += '}';
  return out;
}

std::string JsonObject::str() && {
  text_ += '}';
  return std::move(text_);
}

JsonArray& JsonArray::push(const JsonObject& obj) {
  elements_.push_back(obj.str());
  return *this;
}

JsonArray& JsonArray::push_raw(const std::string& raw_json) {
  elements_.push_back(raw_json);
  return *this;
}

std::string JsonArray::str(int indent) const {
  if (indent < 0) {
    std::string out = "[";
    for (std::size_t i = 0; i < elements_.size(); ++i) {
      if (i > 0) out += ", ";
      out += elements_[i];
    }
    return out + "]";
  }
  if (elements_.empty()) return "[]";
  const std::string outer(static_cast<std::size_t>(indent), ' ');
  const std::string inner(static_cast<std::size_t>(indent) + 2, ' ');
  std::string out = "[\n";
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    out += inner + elements_[i];
    if (i + 1 < elements_.size()) out += ",";
    out += "\n";
  }
  return out + outer + "]";
}

bool write_perf_report(const std::string& path, const std::string& bench,
                       const PerfTelemetry& telemetry, JsonObject extra) {
  JsonObject obj;
  obj.set("bench", bench)
      .set("threads", telemetry.threads)
      .set("runs", telemetry.runs)
      .set("simulated_cycles", telemetry.simulated_cycles)
      .set("wall_seconds", telemetry.wall_seconds)
      .set("cycles_per_second", telemetry.cycles_per_second());
  obj.merge(extra);
  std::ofstream out(path);
  if (!out) return false;
  out << obj.str() << "\n";
  return static_cast<bool>(out);
}

}  // namespace mot3d::sim
