#include "util/string_util.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace ctdb {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' || s[b] == '\r'))
    ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' ||
                   s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ParseUint64(std::string_view digits, uint64_t* value) {
  const char* end = digits.data() + digits.size();
  uint64_t parsed = 0;
  // from_chars rejects empty input, a sign or a space for an unsigned type,
  // and reports overflow instead of wrapping.
  const auto [stop, error] = std::from_chars(digits.data(), end, parsed);
  if (error != std::errc() || stop != end) return false;
  *value = parsed;
  return true;
}

std::string StringFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanBytes(size_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  double v = static_cast<double>(bytes);
  size_t u = 0;
  while (v >= 1024.0 && u + 1 < sizeof(units) / sizeof(units[0])) {
    v /= 1024.0;
    ++u;
  }
  return StringFormat("%.1f %s", v, units[u]);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StringFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace ctdb
