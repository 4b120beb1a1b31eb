// Perf-trajectory JSON reports for `mot3d_experiments --json=`.
//
// Each scenario run can dump one flat JSON object with its identity, knobs
// and SweepRunner telemetry (wall seconds, simulated cycles, cycles/s) so
// successive PRs can chart simulator throughput over time (BENCH_*.json).
// The writer is deliberately tiny: flat objects, insertion-ordered keys,
// deterministic number formatting — no external JSON dependency.  The
// same writer builds the canonical spec JSON the sweep service hashes,
// every run's metrics JSON and every service response line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sweep_runner.hpp"

namespace mot3d::sim {

/// Canonical JSON number: shortest round-trip formatting, so equal doubles
/// always serialise to equal bytes (the golden baselines depend on this).
std::string json_number(double v);

/// Canonical JSON string literal (quoted + escaped).
std::string json_string(std::string_view s);

class JsonArray;

/// Flat JSON object with insertion-ordered, deterministic serialisation.
/// Each set() appends `, "key": value` straight into one buffer that
/// opens with the '{': escaping copies runs of plain characters in place
/// and numbers are formatted into it directly, so a field costs no
/// allocation of its own.  str() adds the closing brace.
class JsonObject {
 public:
  JsonObject() : text_("{") {}

  /// Room for `bytes` of serialised object, so an object whose size the
  /// caller can bound grows its buffer once.
  JsonObject& reserve(std::size_t bytes) {
    text_.reserve(bytes);
    return *this;
  }

  JsonObject& set(std::string_view key, std::string_view value);
  /// Without this overload a string literal would convert to bool.
  JsonObject& set(std::string_view key, const char* value) {
    return set(key, std::string_view(value));
  }
  JsonObject& set(std::string_view key, double value);
  JsonObject& set(std::string_view key, std::uint64_t value);
  JsonObject& set(std::string_view key, unsigned value) {
    return set(key, static_cast<std::uint64_t>(value));
  }
  JsonObject& set(std::string_view key, bool value);
  /// Nest an already-serialised JSON value (object or array) under `key`.
  JsonObject& set_raw(std::string_view key, std::string_view raw_json);

  /// Append every field of `other` after this object's own fields.
  JsonObject& merge(const JsonObject& other);

  std::string str() const&;
  /// Closes the buffer and hands it over without copying it.
  std::string str() &&;

 private:
  /// Appends the separator, the quoted key and ": "; returns the buffer
  /// for the value to be appended to.
  std::string& field(std::string_view key);

  std::string text_;  ///< '{' then `"key": value` pairs joined by ", "
};

/// JSON array of already-serialised values, one element per line when
/// `str(indent)` is called with a non-negative indent (golden files keep
/// one run per line so diffs stay reviewable).
class JsonArray {
 public:
  JsonArray& push(const JsonObject& obj);
  JsonArray& push_raw(const std::string& raw_json);
  std::size_t size() const { return elements_.size(); }

  /// `indent < 0`: single line.  `indent >= 0`: one element per line,
  /// each prefixed by `indent + 2` spaces, closing bracket at `indent`.
  std::string str(int indent = -1) const;

 private:
  std::vector<std::string> elements_;
};

/// Canonical bench perf report (bench name + telemetry + extra fields
/// already staged in `extra`).  Returns false if `path` cannot be written.
bool write_perf_report(const std::string& path, const std::string& bench,
                       const PerfTelemetry& telemetry, JsonObject extra = {});

}  // namespace mot3d::sim
