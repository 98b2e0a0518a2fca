// Strict unsigned flag values, shared by vsjoin_estimate, vsjoin_server and
// vsjoin_client: base-10 digits only, so "-1" never wraps to 2^64 − 1 and
// an overflowing value never saturates, and each flag's [min, max] bound is
// checked before any narrowing cast.

#ifndef VSJ_UTIL_FLAGS_H_
#define VSJ_UTIL_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string_view>
#include <system_error>

namespace vsj {

/// `token` as a base-10 uint64_t: the whole token, digits only, no
/// overflow.
inline bool ParseU64(std::string_view token, uint64_t* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Reads `token`, the value of unsigned flag `name` (null when the command
/// line ended before it), into `out`, bounded to [min, max]. On failure
/// prints one diagnostic naming the flag and the token and returns false.
inline bool ParseFlagU64(const char* name, const char* token, uint64_t* out,
                         uint64_t min = 0, uint64_t max = UINT64_MAX) {
  if (token == nullptr) {
    std::cerr << "missing value for " << name << "\n";
    return false;
  }
  const char* end = token + std::strlen(token);
  const auto [ptr, ec] = std::from_chars(token, end, *out);
  if (ec == std::errc::invalid_argument || ptr != end) {
    std::cerr << "could not parse " << name << " value: " << token << "\n";
    return false;
  }
  if (ec == std::errc::result_out_of_range || *out < min || *out > max) {
    std::cerr << "out-of-range " << name << " value (must be in [" << min
              << ", " << max << "]): " << token << "\n";
    return false;
  }
  return true;
}

/// Refuses `k` (--k) times `tables` (--tables) above `max` hash functions,
/// printing one diagnostic that names both values. Each flag is already
/// bounded to [1, max], so the product cannot overflow.
inline bool CheckHashFunctionCount(uint64_t k, uint64_t tables,
                                   uint64_t max) {
  if (k * tables <= max) return true;
  std::cerr << "--k " << k << " times --tables " << tables << " is "
            << k * tables << " hash functions (at most " << max << ")\n";
  return false;
}

}  // namespace vsj

#endif  // VSJ_UTIL_FLAGS_H_
