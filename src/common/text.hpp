// Small shared string utilities.
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace glova {

/// ASCII lowercase copy (used for case-insensitive name matching in the
/// registry, config/run-spec parsing, and the SPICE netlist parser).
[[nodiscard]] inline std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

/// Strict unsigned decimal: every character of `text` a digit (no sign, no
/// whitespace) and the value at most `max`; nullopt otherwise.  The one
/// parser behind every unsigned field (RunSpec, SweepSpec, the state formats,
/// the serve tools' flags).  std::stoull would read "-1" as 2^64 - 1 and
/// accept "+5" and leading spaces.
[[nodiscard]] inline std::optional<std::uint64_t> parse_unsigned(
    std::string_view text, std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t out = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end || out > max) return std::nullopt;
  return out;
}

/// Shortest text form that parses back to exactly the same double
/// (max_digits10).  The one formatter behind every lossless text round-trip
/// (RunSpec::to_string, campaign checkpoints) — the formats stay mutually
/// consistent because they share it.
[[nodiscard]] inline std::string format_double_roundtrip(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", std::numeric_limits<double>::max_digits10, v);
  return buf;
}

}  // namespace glova
