// Shared line-oriented state serialization helpers.
//
// Every persistent text format in the repo (campaign checkpoints, replay-free
// optimizer session state, glova-serve job records) is built from the same
// primitives: one record per line, a leading keyword tag, doubles round-
// tripped losslessly via format_double_roundtrip, and counts validated
// against a sanity cap so a corrupt field fails as a malformed-input error
// instead of a multi-petabyte allocation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace glova::state {

/// Sanity cap on serialized element counts (sessions, vector lengths, cache
/// entries).  Real state is orders of magnitude below this.
inline constexpr std::size_t kMaxCount = 1'000'000;

/// Throws std::runtime_error("glova-state: " + what).
[[noreturn]] void bad(const std::string& what);

/// Read one line and split off its leading keyword; throws when the stream
/// ends or the keyword differs from `expect`.  Returns the remainder of the
/// line (without the keyword and its trailing space).
std::string expect_line(std::istream& is, std::string_view expect);

/// Strict full-token integer parses; throw via bad() with `what` context.
[[nodiscard]] std::uint64_t parse_u64(const std::string& text, std::string_view what);
[[nodiscard]] double parse_double(const std::string& text, std::string_view what);

/// The next space-separated token of `line` as a strict unsigned decimal
/// (parse_u64's rule); throws bad("malformed " + what) when the line is
/// exhausted or the token is not one.  `line >> n` would read "-1" into an
/// unsigned as 2^64 - 1.
[[nodiscard]] std::uint64_t next_u64(std::istream& line, std::string_view what);

/// "tag N v0 v1 ... vN-1" on one line, doubles via max_digits10.
void write_doubles(std::ostream& os, std::string_view tag, std::span<const double> v);
[[nodiscard]] std::vector<double> read_doubles(std::istream& is, std::string_view tag);

/// Same for unsigned integers.
void write_u64s(std::ostream& os, std::string_view tag, std::span<const std::uint64_t> v);
[[nodiscard]] std::vector<std::uint64_t> read_u64s(std::istream& is, std::string_view tag);

/// Newlines would break the line-oriented formats; free-form strings
/// (exception texts, termination reasons) are stored with them flattened to
/// spaces.
[[nodiscard]] std::string one_line(std::string_view text);

}  // namespace glova::state
