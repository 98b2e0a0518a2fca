// Minimal JSON document model for the network protocol.
//
// The serving layer frames JSON payloads (net/wire.h), so it needs a
// parser that is strict about untrusted bytes — the protocol-robustness
// contract is that garbage from a socket becomes a typed error, never UB
// or an abort. This is a deliberately small strict-JSON implementation:
//
//   * Parsing is recursive descent with an explicit depth limit (a frame
//     of 100k '[' characters must fail cleanly, not overflow the stack),
//     rejects trailing bytes, bad escapes, bare NaN/Infinity tokens and
//     malformed numbers, and reports a byte offset with every error.
//   * Numbers are doubles, read by std::from_chars (correctly rounded, no
//     locale). A literal out of the double range is not an error: one that
//     overflows (1e999) parses to ±inf and one that underflows (1e-400,
//     -1e-400, 2.4e-324) to a zero of its sign — non-finite values are
//     representable on purpose so the *request validation* layer
//     (ValidateEstimateRequest) can reject them with a named diagnostic
//     instead of a generic parse error (see the estimate_request_test
//     regression suite).
//   * Serialization escapes control characters, emits integers exactly
//     (no ".0" suffix, no precision loss below 2^53) and other doubles in
//     %.17g form, written by std::to_chars, so a round-trip through the
//     wire preserves the exact bits — the server's bit-identity golden
//     test depends on this.
//
// Objects preserve insertion order and allow duplicate keys on parse
// (last one wins on Find), matching how lenient peers behave.
//
// ParseJsonMembers is the same parser without the top-level DOM: it hands
// each member of a document's top-level object to a callback as it reads
// it — a scalar as a number, bool or string view, a nested value as a
// JsonValue — with the same grammar, error messages, byte offsets and
// depth limit as ParseJson. The request decoder (net/protocol.h) reads
// every frame through it.

#ifndef VSJ_NET_JSON_H_
#define VSJ_NET_JSON_H_

#include <cstddef>
#include <cstdint>
#include <forward_list>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vsj::net {

/// One JSON value (null, bool, number, string, array or object).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; the caller must have checked the type (the value is
  /// default-initialized otherwise, never UB).
  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }

  /// Element count of an array or object (0 for scalars).
  size_t size() const;

  /// Array element access; `i` must be < size().
  const JsonValue& operator[](size_t i) const { return array_[i]; }

  /// Object member lookup; nullptr when absent (or not an object). With
  /// duplicate keys the last occurrence wins.
  const JsonValue* Find(std::string_view key) const;

  /// The members of an object / elements of an array, for iteration.
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return object_;
  }
  const std::vector<JsonValue>& elements() const { return array_; }

  /// Builders (arrays append, objects set; both return *this for
  /// chaining). Calling them coerces the value to the container type.
  JsonValue& Append(JsonValue element);
  JsonValue& Set(std::string key, JsonValue value);
  /// Reserves room for `count` members (coerces the value to an object).
  JsonValue& ReserveMembers(size_t count);

  /// Serializes to compact JSON. Non-finite numbers become null (they
  /// never appear in well-formed responses; the encoder must still not
  /// emit invalid JSON if one slips through).
  void SerializeTo(std::string* out) const;
  std::string Serialize() const;

  /// Appends `v` to `out` the way the serializer would: integers within
  /// the exact double range print exactly (printf's %lld), other values as
  /// AppendDouble does.
  static void AppendNumber(std::string* out, double v);

  /// Appends `v` in printf's %.17g form (round-trip exact; -0 stays "-0"),
  /// non-finite as "null". The one %.17g writer of the wire.
  static void AppendDouble(std::string* out, double v);

  /// Appends the quoted, escaped form of `s`.
  static void AppendQuoted(std::string* out, std::string_view s);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Strict parse of exactly one JSON document (plus surrounding
/// whitespace). On failure returns false and fills `*error` with a
/// message that includes the byte offset. `*value` is unspecified on
/// failure. Nesting beyond `max_depth` is rejected.
bool ParseJson(std::string_view text, JsonValue* value, std::string* error,
               size_t max_depth = 64);

/// A member value as ParseJsonMembers reads it: a scalar in place, a
/// nested array or object as a JsonValue.
struct JsonMemberValue {
  JsonValue::Type type = JsonValue::Type::kNull;
  bool boolean = false;               ///< kBool.
  double number = 0.0;                ///< kNumber.
  std::string_view string;            ///< kString: the unescaped bytes.
  const JsonValue* nested = nullptr;  ///< kArray / kObject.

  /// The same view of a DOM value, so one set of rules can read members
  /// from either parser. `value` must outlive the view.
  static JsonMemberValue Of(const JsonValue& value);
};

/// What ParseJsonMembers cannot view in the text itself: strings that held
/// an escape, unescaped, and nested values. The member values' views stay
/// valid while the store lives.
struct JsonMemberStore {
  std::forward_list<std::string> strings;
  std::forward_list<JsonValue> nested;
};

/// Called once per top-level member, in document order; duplicate keys
/// are all passed on. `key` is unescaped and valid only during the call.
using JsonMemberFn =
    std::function<void(std::string_view key, const JsonMemberValue& value)>;

/// ParseJson in one pass for a document whose top level should be an
/// object: each member goes to `on_member` as it is read, and no DOM is
/// built for the top level. Grammar, error text, byte offsets and the
/// depth limit are ParseJson's, and so is the rule that any error, even
/// one after members already went out, fails the whole document. A
/// well-formed document that is not an object returns true with
/// *is_object false and no calls. The text must outlive the views.
bool ParseJsonMembers(std::string_view text, const JsonMemberFn& on_member,
                      JsonMemberStore* store, bool* is_object,
                      std::string* error, size_t max_depth = 64);

}  // namespace vsj::net

#endif  // VSJ_NET_JSON_H_
