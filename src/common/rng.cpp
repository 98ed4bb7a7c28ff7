#include "common/rng.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/text.hpp"

namespace glova {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Rng Rng::split(std::uint64_t index) const {
  // Mix the parent seed with the child index through two SplitMix64 rounds so
  // that (seed, 0) and (seed + 1, 0) style collisions cannot occur.
  const std::uint64_t child = splitmix64(splitmix64(seed_) ^ splitmix64(index * 0xD1342543DE82EF95ull + 1));
  return Rng(child);
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

double Rng::normal() {
  return std::normal_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::normal(double mean, double sigma) {
  if (sigma < 0.0) throw std::invalid_argument("Rng::normal: negative sigma");
  if (sigma == 0.0) return mean;
  return std::normal_distribution<double>(mean, sigma)(engine_);
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::index: n must be >= 1");
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
}

std::vector<double> Rng::normal_vector(std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = normal();
  return v;
}

std::vector<double> Rng::uniform_vector(std::size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = uniform(lo, hi);
  return v;
}

std::string Rng::save() const {
  std::ostringstream os;
  os << seed_ << ' ' << engine_;
  return os.str();
}

void Rng::restore(const std::string& text) {
  std::istringstream is(text);
  std::string seed_text;
  std::mt19937_64 engine;
  const bool read = static_cast<bool>(is >> seed_text >> engine);
  // Strict, unlike `is >> seed`, which would keep "-1" as 2^64 - 1.
  const std::optional<std::uint64_t> seed = read ? parse_unsigned(seed_text) : std::nullopt;
  if (!seed) throw std::runtime_error("Rng::restore: malformed stream state");
  seed_ = *seed;
  engine_ = engine;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  // Partial Fisher-Yates over an index vector.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace glova
