// Minimal JSON reader — the parsing twin of the JsonObject/JsonArray
// writer in sim/perf_report.hpp: it reads the BENCH_*.json perf baselines
// and the sweep service's newline-delimited request documents.
// Deliberately supports only the subset our own writer emits — objects,
// arrays, strings, numbers, bools, null; no \uXXXX escapes — anything
// else is malformed input and parses to std::nullopt, never a guess.
// Numbers follow RFC 8259's grammar exactly (no "+1", ".5", "1." or
// "01"), and a value a double cannot hold (1e400, a subnormal) is
// malformed too.  So are a raw byte below 0x20 inside a string (it must
// be escaped) and whitespace beyond space, tab, LF and CR (\v, \f).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mot3d::sim {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  JsonValue* find(std::string_view key) {
    return const_cast<JsonValue*>(std::as_const(*this).find(key));
  }

  /// The value as a count: a number holding an integer in [0, 2^53), the
  /// range a double holds exactly; std::nullopt for anything else.
  std::optional<std::uint64_t> as_count() const;
};

class JsonReader {
 public:
  /// Deepest nesting of arrays and objects a document may have; deeper is
  /// malformed, so a hostile line cannot exhaust the parser's stack.
  /// Request lines and BENCH baselines nest at most four levels.
  static constexpr std::size_t kMaxDepth = 32;

  /// Reads `text` in place: it must outlive parse().
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Whole-document parse: trailing junk is malformed (std::nullopt).
  std::optional<JsonValue> parse();

 private:
  void skip_ws();
  bool literal(std::string_view lit);
  bool parse_value(JsonValue& out);
  bool parse_object(JsonValue& out);
  bool parse_array(JsonValue& out);
  bool parse_string(std::string& out);
  bool parse_number(JsonValue& out);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays and objects open at pos_
};

}  // namespace mot3d::sim
