#include "patlabor/obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace patlabor::obs::json {

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj)
    if (k == key) return &v;
  return nullptr;
}

namespace {

struct Parser {
  std::string_view s;
  std::size_t pos = 0;
  int depth = 0;
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
            s[pos] == '\r'))
      ++pos;
  }

  bool eof() const { return pos >= s.size(); }
  char peek() const { return s[pos]; }

  bool consume(char c) {
    if (eof() || s[pos] != c) return false;
    ++pos;
    return true;
  }

  bool literal(std::string_view lit) {
    if (s.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (true) {
      if (eof()) return false;
      const char c = s[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) return false;
      const char esc = s[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > s.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return false;
          }
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: return false;
      }
    }
  }

  bool parse_number(Value& v) {
    const std::size_t start = pos;
    if (!eof() && s[pos] == '-') ++pos;
    if (eof() || !std::isdigit(static_cast<unsigned char>(s[pos])))
      return false;
    while (!eof() && std::isdigit(static_cast<unsigned char>(s[pos]))) ++pos;
    if (!eof() && s[pos] == '.') {
      ++pos;
      if (eof() || !std::isdigit(static_cast<unsigned char>(s[pos])))
        return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(s[pos]))) ++pos;
    }
    if (!eof() && (s[pos] == 'e' || s[pos] == 'E')) {
      ++pos;
      if (!eof() && (s[pos] == '+' || s[pos] == '-')) ++pos;
      if (eof() || !std::isdigit(static_cast<unsigned char>(s[pos])))
        return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(s[pos]))) ++pos;
    }
    v.kind = Value::Kind::kNumber;
    v.number = std::strtod(std::string(s.substr(start, pos - start)).c_str(),
                           nullptr);
    return true;
  }

  bool parse_value(Value& v) {
    if (++depth > kMaxDepth) return false;
    skip_ws();
    if (eof()) return false;
    bool ok = false;
    const char c = peek();
    if (c == '{') {
      ++pos;
      v.kind = Value::Kind::kObject;
      skip_ws();
      if (consume('}')) {
        ok = true;
      } else {
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) break;
          skip_ws();
          if (!consume(':')) break;
          Value member;
          if (!parse_value(member)) break;
          v.obj.emplace_back(std::move(key), std::move(member));
          skip_ws();
          if (consume(',')) continue;
          ok = consume('}');
          break;
        }
      }
    } else if (c == '[') {
      ++pos;
      v.kind = Value::Kind::kArray;
      skip_ws();
      if (consume(']')) {
        ok = true;
      } else {
        while (true) {
          Value elem;
          if (!parse_value(elem)) break;
          v.arr.push_back(std::move(elem));
          skip_ws();
          if (consume(',')) continue;
          ok = consume(']');
          break;
        }
      }
    } else if (c == '"') {
      v.kind = Value::Kind::kString;
      ok = parse_string(v.str);
    } else if (c == 't') {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      ok = literal("true");
    } else if (c == 'f') {
      v.kind = Value::Kind::kBool;
      v.boolean = false;
      ok = literal("false");
    } else if (c == 'n') {
      v.kind = Value::Kind::kNull;
      ok = literal("null");
    } else {
      ok = parse_number(v);
    }
    --depth;
    return ok;
  }
};

}  // namespace

std::optional<Value> parse(std::string_view text) {
  Parser p{text};
  Value v;
  if (!p.parse_value(v)) return std::nullopt;
  p.skip_ws();
  if (!p.eof()) return std::nullopt;  // trailing garbage
  return v;
}

void append_json_string(std::string_view s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += hex;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace patlabor::obs::json
