#include "sim/json_reader.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>

namespace mot3d::sim {

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
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
}

bool JsonReader::literal(const char* lit) {
  const std::size_t n = std::string(lit).size();
  if (text_.compare(pos_, n, lit) != 0) return false;
  pos_ += n;
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
  while (true) {
    skip_ws();
    std::string key;
    if (!parse_string(key)) return false;
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != ':') return false;
    ++pos_;
    skip_ws();
    JsonValue v;
    if (!parse_value(v)) return false;
    out.object.emplace_back(std::move(key), std::move(v));
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
    JsonValue v;
    if (!parse_value(v)) return false;
    out.array.push_back(std::move(v));
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
    const char c = text_[pos_++];
    if (c == '"') return true;
    if (c == '\\') {
      if (pos_ >= text_.size()) return false;
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
    } else {
      out.push_back(c);
    }
  }
  return false;
}

bool JsonReader::parse_number(JsonValue& out) {
  const std::size_t start = pos_;
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
          text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
  }
  if (pos_ == start) return false;
  try {
    std::size_t used = 0;
    const std::string tok = text_.substr(start, pos_ - start);
    out.number = std::stod(tok, &used);
    if (used != tok.size()) return false;
  } catch (const std::exception&) {
    return false;
  }
  out.type = JsonValue::Type::kNumber;
  return true;
}

}  // namespace mot3d::sim
