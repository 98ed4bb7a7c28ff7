#include "spice/measure.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace glova::spice {

namespace {
void check_sizes(std::span<const double> times, std::span<const double> values) {
  if (times.size() != values.size()) throw std::invalid_argument("measure: trace size mismatch");
  if (times.empty()) throw std::invalid_argument("measure: empty trace");
}
}  // namespace

std::optional<double> first_crossing(std::span<const double> times, std::span<const double> values,
                                     double threshold, CrossDirection direction, double t_start) {
  check_sizes(times, values);
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (times[i] < t_start) continue;
    const double prev = values[i - 1];
    const double cur = values[i];
    const bool rising = prev < threshold && cur >= threshold;
    const bool falling = prev > threshold && cur <= threshold;
    const bool hit = (direction == CrossDirection::Rising && rising) ||
                     (direction == CrossDirection::Falling && falling) ||
                     (direction == CrossDirection::Either && (rising || falling));
    if (!hit) continue;
    const double denom = cur - prev;
    const double frac = std::abs(denom) > 0.0 ? (threshold - prev) / denom : 0.0;
    const double t = times[i - 1] + frac * (times[i] - times[i - 1]);
    if (t >= t_start) return t;
  }
  return std::nullopt;
}

double integrate(std::span<const double> times, std::span<const double> values, double t0,
                 double t1) {
  check_sizes(times, values);
  // One walk over the trace, interpolating only where a window end falls
  // inside an interval.  At a sample the trapezoid takes the value value_at()
  // returns there (the first of equal times, the last sample at the trace's
  // end), so the sum is bit-identical to calling value_at() at both ends of
  // every clipped interval.
  const auto lerp = [&](std::size_t hi, double t) {
    const std::size_t lo = hi - 1;
    const double frac = (t - times[lo]) / (times[hi] - times[lo]);
    return values[lo] + frac * (values[hi] - values[lo]);
  };
  double sum = 0.0;
  std::size_t first = 0;  // first index whose time equals times[i - 1]
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double a = std::max(times[i - 1], t0);
    const double b = std::min(times[i], t1);
    if (b > a) {
      const double va = a == times[i - 1] ? values[first] : lerp(i, a);
      const double vb = b != times[i]             ? lerp(i, b)
                        : times[i] == times.back() ? values.back()
                                                   : values[i];
      sum += 0.5 * (va + vb) * (b - a);
    }
    if (times[i] != times[i - 1]) first = i;
  }
  return sum;
}

double value_at(std::span<const double> times, std::span<const double> values, double t) {
  check_sizes(times, values);
  if (t <= times.front()) return values.front();
  if (t >= times.back()) return values.back();
  const auto it = std::lower_bound(times.begin(), times.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times.begin());
  if (times[hi] == t) return values[hi];
  const std::size_t lo = hi - 1;
  const double frac = (t - times[lo]) / (times[hi] - times[lo]);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double min_in_window(std::span<const double> times, std::span<const double> values, double t0,
                     double t1) {
  check_sizes(times, values);
  double best = value_at(times, values, t0);
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] >= t0 && times[i] <= t1) best = std::min(best, values[i]);
  }
  best = std::min(best, value_at(times, values, t1));
  return best;
}

double max_in_window(std::span<const double> times, std::span<const double> values, double t0,
                     double t1) {
  check_sizes(times, values);
  double best = value_at(times, values, t0);
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] >= t0 && times[i] <= t1) best = std::max(best, values[i]);
  }
  best = std::max(best, value_at(times, values, t1));
  return best;
}

double supply_energy(std::span<const double> times, std::span<const double> currents, double vdd,
                     double t0, double t1) {
  // The MNA branch current of a source flows from + through the source to -,
  // so a supply *delivering* energy has negative branch current.
  return -vdd * integrate(times, currents, t0, t1);
}

std::vector<double> difference(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("measure: trace size mismatch");
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

double capacitor_recharge_energy(double farads, double v_supply, double v_from, double v_to) {
  return farads * v_supply * std::abs(v_to - v_from);
}

}  // namespace glova::spice
