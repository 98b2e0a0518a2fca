// Decimal text of an integer, appended in place: std::to_chars into a
// stack buffer, so neither libc's locale machinery nor a std::to_string
// temporary sits on the paths that build wire payloads and cache keys. The
// bytes are printf's %d/%llu.

#ifndef VSJ_UTIL_DECIMAL_H_
#define VSJ_UTIL_DECIMAL_H_

#include <charconv>
#include <string>
#include <type_traits>

namespace vsj {

template <typename Int>
void AppendDecimal(std::string* out, Int value) {
  static_assert(std::is_integral_v<Int>);
  char buffer[24];  // the 20 digits of 2^64 - 1, or a sign and 19
  char* end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  out->append(buffer, end);
}

}  // namespace vsj

#endif  // VSJ_UTIL_DECIMAL_H_
