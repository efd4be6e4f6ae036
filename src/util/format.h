// Locale-independent number formatting/parsing shared by the reporters,
// the result cache, and the CLI, plus the JSON string escape.
//
// Doubles render via shortest-round-trip std::to_chars: the same value
// always produces the same bytes (unlike locale-sensitive iostreams), and
// parse_whole round-trips them bit-exactly — the foundation of both the
// sweep byte-identity guarantee and the cache's exact row round-trip.

#ifndef LCG_UTIL_FORMAT_H
#define LCG_UTIL_FORMAT_H

#include <charconv>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

namespace lcg {

/// Shortest decimal rendering that round-trips through parse_whole<double>.
inline std::string render_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 64 bytes always suffice for a double
  return std::string(buf, ptr);
}

/// Strict whole-string numeric parse: nullopt on junk, trailing characters,
/// a sign an unsigned T cannot hold, or overflow. The one parser behind
/// every "--flag N" and cache-entry number in the tree.
template <typename T>
[[nodiscard]] std::optional<T> parse_whole(std::string_view text) {
  T v{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size())
    return std::nullopt;
  return v;
}

/// `s` as the body of a JSON string literal: quote, backslash and control
/// characters escaped, everything else byte for byte. The JSONL reporter
/// and the trace writer both quote through it.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace lcg

#endif  // LCG_UTIL_FORMAT_H
