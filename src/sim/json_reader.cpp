#include "sim/json_reader.hpp"

#include <charconv>
#include <cmath>

namespace mot3d::sim {

namespace {

/// Members an object gets room for up front: every field a request line
/// may carry (11) and a BENCH baseline cell's 12, with one allocation.
constexpr std::size_t kObjectMembers = 16;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// JSON's whitespace (RFC 8259): space, tab, LF and CR; not \v or \f.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// A byte a JSON string must escape: a raw one inside quotes is malformed.
bool is_control(char c) { return static_cast<unsigned char>(c) < 0x20; }

}  // namespace

std::optional<std::uint64_t> JsonValue::as_count() const {
  if (type != Type::kNumber || !(number >= 0.0 && number < 0x1p53) ||
      number != std::floor(number)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(number);
}

std::optional<JsonValue> JsonReader::parse() {
  JsonValue v;
  skip_ws();
  if (!parse_value(v)) return std::nullopt;
  skip_ws();
  if (pos_ != text_.size()) return std::nullopt;  // trailing junk
  return v;
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
}

bool JsonReader::literal(std::string_view lit) {
  if (!text_.substr(pos_).starts_with(lit)) return false;
  pos_ += lit.size();
  return true;
}

bool JsonReader::parse_value(JsonValue& out) {
  if (pos_ >= text_.size()) return false;
  switch (text_[pos_]) {
    case '{':
    case '[': {
      if (depth_ == kMaxDepth) return false;
      ++depth_;
      const bool ok =
          text_[pos_] == '{' ? parse_object(out) : parse_array(out);
      --depth_;
      return ok;
    }
    case '"':
      out.type = JsonValue::Type::kString;
      return parse_string(out.string);
    case 't':
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      return literal("true");
    case 'f':
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      return literal("false");
    case 'n':
      out.type = JsonValue::Type::kNull;
      return literal("null");
    default: return parse_number(out);
  }
}

bool JsonReader::parse_object(JsonValue& out) {
  out.type = JsonValue::Type::kObject;
  ++pos_;  // '{'
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
  out.object.reserve(kObjectMembers);
  while (true) {
    skip_ws();
    auto& [key, value] = out.object.emplace_back();
    if (!parse_string(key)) return false;
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != ':') return false;
    ++pos_;
    skip_ws();
    if (!parse_value(value)) return false;
    skip_ws();
    if (pos_ >= text_.size()) return false;
    if (text_[pos_] == ',') { ++pos_; continue; }
    if (text_[pos_] == '}') { ++pos_; return true; }
    return false;
  }
}

bool JsonReader::parse_array(JsonValue& out) {
  out.type = JsonValue::Type::kArray;
  ++pos_;  // '['
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
  while (true) {
    skip_ws();
    if (!parse_value(out.array.emplace_back())) return false;
    skip_ws();
    if (pos_ >= text_.size()) return false;
    if (text_[pos_] == ',') { ++pos_; continue; }
    if (text_[pos_] == ']') { ++pos_; return true; }
    return false;
  }
}

bool JsonReader::parse_string(std::string& out) {
  if (pos_ >= text_.size() || text_[pos_] != '"') return false;
  ++pos_;
  out.clear();
  while (pos_ < text_.size()) {
    // Copy up to the next quote, escape or control byte with one append.
    std::size_t run = pos_;
    while (run < text_.size() && text_[run] != '"' && text_[run] != '\\' &&
           !is_control(text_[run])) {
      ++run;
    }
    out.append(text_.substr(pos_, run - pos_));
    pos_ = run;
    if (pos_ == text_.size()) break;
    const char stop = text_[pos_++];
    if (stop == '"') return true;
    if (stop != '\\' || pos_ >= text_.size()) return false;
    const char e = text_[pos_++];
    switch (e) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      default: return false;  // \uXXXX never appears in our writer
    }
  }
  return false;
}

bool JsonReader::parse_number(JsonValue& out) {
  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  const std::size_t start = pos_;
  const auto take = [this](char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  };
  const auto digits = [this] {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return pos_ > from;
  };
  take('-');
  if (!take('0') && !digits()) return false;
  if (take('.') && !digits()) return false;
  if (take('e') || take('E')) {
    if (!take('+')) take('-');
    if (!digits()) return false;
  }
  const char* const end = text_.data() + pos_;
  const auto [ptr, ec] = std::from_chars(text_.data() + start, end, out.number);
  // Out of range either way, as strtod reports it: an overflow, or an
  // underflow to a subnormal.
  if (ec != std::errc() || ptr != end ||
      std::fpclassify(out.number) == FP_SUBNORMAL) {
    return false;
  }
  out.type = JsonValue::Type::kNumber;
  return true;
}

}  // namespace mot3d::sim
