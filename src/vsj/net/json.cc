#include "vsj/net/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "vsj/util/decimal.h"

namespace vsj::net {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

size_t JsonValue::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) found = &value;  // last duplicate wins
  }
  return found;
}

JsonMemberValue JsonMemberValue::Of(const JsonValue& value) {
  JsonMemberValue view;
  view.type = value.type();
  view.boolean = value.AsBool();
  view.number = value.AsNumber();
  view.string = value.AsString();
  if (value.is_array() || value.is_object()) view.nested = &value;
  return view;
}

JsonValue& JsonValue::Append(JsonValue element) {
  type_ = Type::kArray;
  array_.push_back(std::move(element));
  return *this;
}

JsonValue& JsonValue::Set(std::string key, JsonValue value) {
  type_ = Type::kObject;
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::ReserveMembers(size_t count) {
  type_ = Type::kObject;
  object_.reserve(count);
  return *this;
}

void JsonValue::AppendNumber(std::string* out, double v) {
  // Integers below 2^53 have an exact double representation; print them
  // without an exponent or fraction so ids and counts read back as the
  // same integer they were (and the payloads stay human-readable).
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < kExactLimit) {
    AppendDecimal(out, static_cast<long long>(v));
    return;
  }
  AppendDouble(out, v);
}

void JsonValue::AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  // to_chars with a precision is specified as printf's %.*g in the C
  // locale; 17 significant digits round-trip every double.
  char buffer[32];  // "-1.2345678901234567e-308" is the longest: 24
  char* end = std::to_chars(buffer, buffer + sizeof(buffer), v,
                            std::chars_format::general, 17)
                  .ptr;
  out->append(buffer, end);
}

void JsonValue::AppendQuoted(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void JsonValue::SerializeTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      return;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Type::kNumber:
      AppendNumber(out, number_);
      return;
    case Type::kString:
      AppendQuoted(out, string_);
      return;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& element : array_) {
        if (!first) out->push_back(',');
        first = false;
        element.SerializeTo(out);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out->push_back(',');
        first = false;
        AppendQuoted(out, key);
        out->push_back(':');
        value.SerializeTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

namespace {

/// Recursive-descent parser over a bounded view. Never throws; every
/// failure path records an offset + message once (the first error wins).
class Parser {
 public:
  /// Fields of a typical request: an estimate's id, op, tenant, estimator,
  /// tau, trials and seed, plus one.
  static constexpr size_t kRequestMembers = 8;

  Parser(std::string_view text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  bool Parse(JsonValue* value, std::string* error) {
    SkipWhitespace();
    return Finish(ParseValue(value, 0), error);
  }

  bool ParseMembers(const JsonMemberFn& on_member, JsonMemberStore* store,
                    bool* is_object, std::string* error) {
    SkipWhitespace();
    *is_object = !AtEnd() && Peek() == '{';
    if (!*is_object) {
      // Not an object: whether it parses, and ParseJson's error if not, is
      // all the caller learns.
      JsonValue document;
      return Parse(&document, error);
    }
    const bool parsed =
        ParseObjectMembers(0, [&](std::string_view key, size_t depth) {
          JsonMemberValue value;
          if (!ParseMemberValue(&value, depth, store)) return false;
          on_member(key, value);
          return true;
        });
    return Finish(parsed, error);
  }

 private:
  /// Formats the recorded error, or rejects bytes after the document.
  bool Finish(bool parsed, std::string* error) {
    if (!parsed) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), " at byte %zu", error_offset_);
      *error = error_message_ + buffer;
      return false;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), " at byte %zu", pos_);
      *error = std::string("trailing bytes after document") + buffer;
      return false;
    }
    return true;
  }

  bool Fail(const char* message) {
    if (error_message_.empty()) {
      error_message_ = message;
      error_offset_ = pos_;
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Consume(char expected, const char* message) {
    if (AtEnd() || text_[pos_] != expected) return Fail(message);
    ++pos_;
    return true;
  }

  bool ConsumeKeyword(std::string_view keyword, const char* message) {
    if (text_.substr(pos_, keyword.size()) != keyword) return Fail(message);
    pos_ += keyword.size();
    return true;
  }

  /// The checks every value starts with.
  bool EnterValue(size_t depth) {
    if (depth > max_depth_) return Fail("nesting too deep");
    if (AtEnd()) return Fail("unexpected end of document");
    return true;
  }

  bool ParseValue(JsonValue* value, size_t depth) {
    if (!EnterValue(depth)) return false;
    switch (Peek()) {
      case '"': {
        std::string_view s;
        std::string scratch;
        if (!ParseString(&s, &scratch)) return false;
        *value = JsonValue::Str(scratch.empty() ? std::string(s)
                                                : std::move(scratch));
        return true;
      }
      case '[':
        return ParseArray(value, depth);
      case '{':
        return ParseObject(value, depth);
      default: {
        JsonMemberValue literal;
        if (!ParseLiteral(&literal)) return false;
        if (literal.type == JsonValue::Type::kNumber) {
          *value = JsonValue::Number(literal.number);
        } else if (literal.type == JsonValue::Type::kBool) {
          *value = JsonValue::Bool(literal.boolean);
        } else {
          *value = JsonValue::Null();
        }
        return true;
      }
    }
  }

  /// A top-level member's value: scalars in place, a string in the text
  /// unless it held an escape, nested values in the store.
  bool ParseMemberValue(JsonMemberValue* value, size_t depth,
                        JsonMemberStore* store) {
    if (!EnterValue(depth)) return false;
    switch (Peek()) {
      case '"': {
        std::string scratch;
        if (!ParseString(&value->string, &scratch)) return false;
        if (!scratch.empty()) {
          value->string = store->strings.emplace_front(std::move(scratch));
        }
        value->type = JsonValue::Type::kString;
        return true;
      }
      case '[':
      case '{': {
        JsonValue& nested = store->nested.emplace_front();
        if (!ParseValue(&nested, depth)) return false;
        value->type = nested.type();
        value->nested = &nested;
        return true;
      }
      default:
        return ParseLiteral(value);
    }
  }

  /// null, true, false or a number.
  bool ParseLiteral(JsonMemberValue* value) {
    switch (Peek()) {
      case 'n':
        value->type = JsonValue::Type::kNull;
        return ConsumeKeyword("null", "bad literal");
      case 't':
        value->type = JsonValue::Type::kBool;
        value->boolean = true;
        return ConsumeKeyword("true", "bad literal");
      case 'f':
        value->type = JsonValue::Type::kBool;
        value->boolean = false;
        return ConsumeKeyword("false", "bad literal");
      default:
        value->type = JsonValue::Type::kNumber;
        return ParseNumber(&value->number);
    }
  }

  bool ParseArray(JsonValue* value, size_t depth) {
    ++pos_;  // '['
    *value = JsonValue::Array();
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      SkipWhitespace();
      if (!ParseValue(&element, depth + 1)) return false;
      value->Append(std::move(element));
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseObject(JsonValue* value, size_t depth) {
    *value = JsonValue::Object();
    // The document's own object is a request: room for its members up
    // front, so a typical one never regrows and moves its members.
    // Nested objects grow as they fill — reserving for each of them would
    // let a frame of "{}" items allocate far more than its own size.
    if (depth == 0) value->ReserveMembers(kRequestMembers);
    return ParseObjectMembers(depth, [&](std::string_view key,
                                         size_t member_depth) {
      JsonValue member;
      if (!ParseValue(&member, member_depth)) return false;
      value->Set(std::string(key), std::move(member));
      return true;
    });
  }

  /// The object grammar, once: reads the keys and separators and calls
  /// `parse_member(key, depth + 1)` to read each value.
  template <typename ParseMember>
  bool ParseObjectMembers(size_t depth, ParseMember&& parse_member) {
    ++pos_;  // '{'
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return true;
    }
    std::string key_scratch;
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Fail("expected object key");
      std::string_view key;
      if (!ParseString(&key, &key_scratch)) return false;
      SkipWhitespace();
      if (!Consume(':', "expected ':' after object key")) return false;
      SkipWhitespace();
      if (!parse_member(key, depth + 1)) return false;
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  void AppendUtf8(std::string* out, uint32_t code_point) {
    if (code_point < 0x80) {
      out->push_back(static_cast<char>(code_point));
    } else if (code_point < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code_point >> 6)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else if (code_point < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code_point >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code_point >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    }
  }

  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("bad \\u escape digit");
      }
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  /// Reads a string token into *view: the bytes in the text itself when
  /// the string holds no escape, and *scratch left empty; else its
  /// unescaped form, built in *scratch.
  bool ParseString(std::string_view* view, std::string* scratch) {
    const size_t start = ++pos_;  // past the opening quote
    scratch->clear();
    bool escaped = false;
    while (true) {
      // One append for the run of bytes up to the next quote, backslash
      // or control character.
      const size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      if (escaped) scratch->append(text_.data() + run, pos_ - run);
      if (AtEnd()) return Fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        *view = escaped ? std::string_view(*scratch)
                        : text_.substr(start, pos_ - start);
        ++pos_;
        return true;
      }
      if (c != '\\') return Fail("raw control character in string");
      if (!escaped) {
        escaped = true;
        scratch->assign(text_.data() + start, pos_ - start);
      }
      ++pos_;  // backslash
      if (AtEnd()) return Fail("truncated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
          scratch->push_back('"');
          break;
        case '\\':
          scratch->push_back('\\');
          break;
        case '/':
          scratch->push_back('/');
          break;
        case 'b':
          scratch->push_back('\b');
          break;
        case 'f':
          scratch->push_back('\f');
          break;
        case 'n':
          scratch->push_back('\n');
          break;
        case 'r':
          scratch->push_back('\r');
          break;
        case 't':
          scratch->push_back('\t');
          break;
        case 'u': {
          uint32_t code_point = 0;
          if (!ParseHex4(&code_point)) return false;
          // Surrogate pair: a high surrogate must be followed by \uDC00..
          // \uDFFF; combine the two into one code point.
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("unpaired high surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("bad low surrogate");
            }
            code_point =
                0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
          } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          AppendUtf8(scratch, code_point);
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
  }

  bool ParseNumber(double* value) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    // Integer part: 0, or a nonzero digit followed by digits. This grammar
    // check is what rejects bare "NaN", "Infinity", "+1", ".5" and "01"
    // before from_chars (which would happily accept several of them).
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      pos_ = start;
      return Fail("bad number");
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        pos_ = start;
        return Fail("bad number");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        pos_ = start;
        return Fail("bad number");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    // The token passed the JSON grammar, so from_chars reads all of it.
    // Out of range it leaves `number` untouched; strtod's saturation to
    // ±inf (overflow) or ±0 (underflow) is kept deliberately — the request
    // validation layer rejects non-finite fields by name.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double number = 0.0;
    if (std::from_chars(first, last, number).ec ==
        std::errc::result_out_of_range) {
      number = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    *value = number;
    return true;
  }

  std::string_view text_;
  size_t max_depth_;
  size_t pos_ = 0;
  std::string error_message_;
  size_t error_offset_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* value, std::string* error,
               size_t max_depth) {
  return Parser(text, max_depth).Parse(value, error);
}

bool ParseJsonMembers(std::string_view text, const JsonMemberFn& on_member,
                      JsonMemberStore* store, bool* is_object,
                      std::string* error, size_t max_depth) {
  return Parser(text, max_depth)
      .ParseMembers(on_member, store, is_object, error);
}

}  // namespace vsj::net
