#include "common/state_io.hpp"

#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/text.hpp"

namespace glova::state {

void bad(const std::string& what) { throw std::runtime_error("glova-state: " + what); }

std::string expect_line(std::istream& is, std::string_view expect) {
  std::string line;
  if (!std::getline(is, line)) {
    bad("unexpected end of input, expected '" + std::string(expect) + "'");
  }
  const std::size_t space = line.find(' ');
  const std::string_view keyword =
      space == std::string::npos ? std::string_view(line) : std::string_view(line).substr(0, space);
  if (keyword != expect) {
    bad("expected '" + std::string(expect) + "', got '" + line + "'");
  }
  return space == std::string::npos ? std::string() : line.substr(space + 1);
}

std::uint64_t parse_u64(const std::string& text, std::string_view what) {
  const std::optional<std::uint64_t> v = parse_unsigned(text);
  if (!v) bad("invalid integer for " + std::string(what) + ": '" + text + "'");
  return *v;
}

double parse_double(const std::string& text, std::string_view what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    bad("invalid number for " + std::string(what) + ": '" + text + "'");
  }
}

void write_doubles(std::ostream& os, std::string_view tag, std::span<const double> v) {
  os << tag << ' ' << v.size();
  for (const double x : v) os << ' ' << format_double_roundtrip(x);
  os << '\n';
}

namespace {

/// The next space-separated token of `line` as a strict unsigned decimal
/// (`istream >>` would read "-1" into an unsigned as 2^64 - 1).
std::optional<std::uint64_t> next_unsigned(std::istream& line) {
  std::string token;
  if (!(line >> token)) return std::nullopt;
  return parse_unsigned(token);
}

/// The count that opens a "tag N v0 ... vN-1" line.
std::size_t read_count(std::istream& line, std::string_view tag) {
  const std::optional<std::uint64_t> n = next_unsigned(line);
  if (!n) bad("missing or malformed count after '" + std::string(tag) + "'");
  if (*n > kMaxCount) bad("implausible '" + std::string(tag) + "' count " + std::to_string(*n));
  return static_cast<std::size_t>(*n);
}

}  // namespace

std::uint64_t next_u64(std::istream& line, std::string_view what) {
  const std::optional<std::uint64_t> v = next_unsigned(line);
  if (!v) bad("malformed " + std::string(what));
  return *v;
}

std::vector<double> read_doubles(std::istream& is, std::string_view tag) {
  std::istringstream line(expect_line(is, tag));
  std::vector<double> out(read_count(line, tag));
  for (double& x : out) {
    if (!(line >> x)) bad("truncated vector '" + std::string(tag) + "'");
  }
  return out;
}

void write_u64s(std::ostream& os, std::string_view tag, std::span<const std::uint64_t> v) {
  os << tag << ' ' << v.size();
  for (const std::uint64_t x : v) os << ' ' << x;
  os << '\n';
}

std::vector<std::uint64_t> read_u64s(std::istream& is, std::string_view tag) {
  std::istringstream line(expect_line(is, tag));
  std::vector<std::uint64_t> out(read_count(line, tag));
  for (std::uint64_t& x : out) {
    const std::optional<std::uint64_t> v = next_unsigned(line);
    if (!v) bad("truncated or malformed vector '" + std::string(tag) + "'");
    x = *v;
  }
  return out;
}

std::string one_line(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

}  // namespace glova::state
