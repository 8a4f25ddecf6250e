// Small string helpers shared by the parser, serializers and bench reporters.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ctdb {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses `digits` as a decimal uint64_t: nonempty, ASCII digits only, and
/// at most 2^64-1 — a larger number is rejected, never wrapped. Leaves
/// `*value` untouched on failure.
bool ParseUint64(std::string_view digits, uint64_t* value);

/// ParseUint64 into the unsigned type of `*value`; also false when the
/// number does not fit it (70000 for a uint16_t port, say).
template <typename T>
bool ParseUnsigned(std::string_view digits, T* value) {
  uint64_t parsed = 0;
  if (!ParseUint64(digits, &parsed) ||
      static_cast<uint64_t>(static_cast<T>(parsed)) != parsed) {
    return false;
  }
  *value = static_cast<T>(parsed);
  return true;
}

/// printf-style formatting into a std::string.
std::string StringFormat(const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

/// Renders a byte count as "12.3 KiB" / "4.5 MiB" etc.
std::string HumanBytes(size_t bytes);

/// Escapes `s` for embedding in a JSON string literal (quotes, backslashes,
/// control characters).
std::string JsonEscape(std::string_view s);

}  // namespace ctdb
