// Minimal strict JSON parser — just enough to round-trip-validate the
// trace/report JSON this library emits (and for tests to inspect it) —
// plus the one string escaper every JSON writer in the repository uses.
// Not a general-purpose library: numbers become double, \uXXXX escapes
// are decoded only for the ASCII range (others become '?').
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace patlabor::obs::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// First member with the given key, or nullptr (objects only).
  const Value* find(std::string_view key) const;
};

/// Parses the entire input (trailing whitespace allowed, trailing garbage
/// rejected).  Returns nullopt on any syntax error.
std::optional<Value> parse(std::string_view text);

/// Appends `s` as a JSON string literal, quotes included: `"` and `\`
/// are backslash-escaped, \n \r \t by name and every other control
/// character as \u00XX, so parse() gives back exactly `s`.
void append_json_string(std::string_view s, std::string& out);

}  // namespace patlabor::obs::json
