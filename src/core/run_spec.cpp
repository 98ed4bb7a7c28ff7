#include "core/run_spec.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>

#include "baselines/pvtsizing.hpp"
#include "baselines/robustanalog.hpp"
#include "common/text.hpp"
#include "core/optimizer.hpp"

namespace glova::core {

namespace {

std::string format_double(double v) { return format_double_roundtrip(v); }

[[noreturn]] void bad_spec(const std::string& what) {
  // The pointer into docs/ keeps every grammar/validation error self-serve:
  // the doc lists each key, its type, default, and constraint.
  throw std::invalid_argument("RunSpec: " + what + " (see docs/run_spec.md)");
}

std::uint64_t parse_u64(std::string_view key, std::string_view value) {
  const std::optional<std::uint64_t> out = parse_unsigned(value);
  if (!out) bad_spec("invalid integer for " + std::string(key) + ": '" + std::string(value) + "'");
  return *out;
}

double parse_double(std::string_view key, std::string_view value) {
  double out = 0.0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    bad_spec("invalid number for " + std::string(key) + ": '" + std::string(value) + "'");
  }
  return out;
}

/// A retired key carrying a value that selected a removed code path.
[[noreturn]] void retired_value(std::string_view key, std::string_view accepted) {
  throw std::invalid_argument("RunSpec: " + std::string(key) + " was removed; only " +
                              std::string(accepted) +
                              " is accepted (see docs/run_spec.md#retired-keys)");
}

bool parse_bool(std::string_view key, std::string_view value) {
  const std::string v = to_lower(value);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  bad_spec("invalid boolean for " + std::string(key) + ": '" + std::string(value) + "'");
}

}  // namespace

const char* to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::Glova: return "glova";
    case Algorithm::PvtSizing: return "pvtsizing";
    case Algorithm::RobustAnalog: return "robustanalog";
  }
  return "?";
}

std::optional<Algorithm> algorithm_from_string(std::string_view name) {
  const std::string n = to_lower(name);
  for (const Algorithm a : all_algorithms()) {
    if (n == to_string(a)) return a;
  }
  if (n == "ours") return Algorithm::Glova;  // the paper's Table II row label
  return std::nullopt;
}

std::vector<Algorithm> all_algorithms() {
  return {Algorithm::Glova, Algorithm::PvtSizing, Algorithm::RobustAnalog};
}

namespace {

/// The backend-independent part of RunSpec::validate(); also applied by the
/// custom-testbench make_optimizer overload, which skips the registry check.
void validate_scalars(const RunSpec& spec) {
  if (spec.max_iterations == 0) bad_spec("max_iterations must be >= 1");
  if (spec.n_opt_samples == 0) bad_spec("n_opt_samples must be >= 1");
  if (spec.corner_filter != "all" && spec.corner_filter != "cold_lv") {
    bad_spec("corner_filter must be 'all' or 'cold_lv'");
  }
  if (spec.cost.per_simulation < 0.0 || spec.cost.per_rl_iteration < 0.0) {
    bad_spec("simulation costs must be non-negative");
  }
  if (spec.budget.max_wall_seconds < 0.0) {
    bad_spec("budget.max_wall_seconds must be non-negative");
  }
  for (const char c : spec.engine.cache_path) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      bad_spec("engine.cache_path must not contain whitespace");
    }
  }
}

}  // namespace

void RunSpec::validate() const {
  if (!circuits::is_available(testcase, backend)) {
    bad_spec(std::string("no ") + circuits::to_string(backend) + " backend for testcase " +
             circuits::to_string(testcase) +
             "; available combinations: " + circuits::supported_combinations());
  }
  validate_scalars(*this);
}

const std::vector<std::string_view>& run_spec_keys() {
  // Canonical emission order — keep in lockstep with to_string() below and
  // the parser in from_string(); tests/test_docs.cpp asserts this list, the
  // to_string() output, and docs/run_spec.md all agree.
  static const std::vector<std::string_view> keys = {
      "testcase",        "backend",
      "algorithm",       "method",
      "corner_filter",   "seed",
      "max_iterations",
      "n_opt_samples",
      "use_ensemble_critic",
      "use_mu_sigma",    "use_reordering",
      "max_simulations", "budget_iterations",
      "max_wall_seconds", "cost_per_simulation",
      "cost_per_rl_iteration", "parallelism",
      "cache_capacity",  "dc_warm_start",
      "cache_path",      "progress_log",
  };
  return keys;
}

std::string RunSpec::to_string() const {
  std::string out;
  const auto kv = [&out](std::string_view key, const std::string& value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  };
  kv("testcase", circuits::to_string(testcase));
  kv("backend", circuits::to_string(backend));
  kv("algorithm", core::to_string(algorithm));
  kv("method", core::to_string(method));
  kv("corner_filter", corner_filter);
  kv("seed", std::to_string(seed));
  kv("max_iterations", std::to_string(max_iterations));
  kv("n_opt_samples", std::to_string(n_opt_samples));
  kv("use_ensemble_critic", use_ensemble_critic ? "1" : "0");
  kv("use_mu_sigma", use_mu_sigma ? "1" : "0");
  kv("use_reordering", use_reordering ? "1" : "0");
  kv("max_simulations", std::to_string(budget.max_simulations));
  kv("budget_iterations", std::to_string(budget.max_iterations));
  kv("max_wall_seconds", format_double(budget.max_wall_seconds));
  kv("cost_per_simulation", format_double(cost.per_simulation));
  kv("cost_per_rl_iteration", format_double(cost.per_rl_iteration));
  kv("parallelism", std::to_string(engine.parallelism));
  kv("cache_capacity", std::to_string(engine.cache_capacity));
  kv("dc_warm_start", engine.dc_warm_start ? "1" : "0");
  kv("cache_path", engine.cache_path);  // empty value round-trips as "cache_path="
  kv("progress_log", progress_log ? "1" : "0");
  return out;
}

RunSpec RunSpec::from_string(std::string_view text) {
  RunSpec spec;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
    if (pos >= text.size()) break;
    std::size_t end = pos;
    while (end < text.size() && !std::isspace(static_cast<unsigned char>(text[end]))) ++end;
    const std::string_view token = text.substr(pos, end - pos);
    pos = end;

    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      bad_spec("expected key=value, got '" + std::string(token) + "'");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);

    if (key == "testcase") {
      const auto tc = circuits::testcase_from_string(value);
      if (!tc) bad_spec("unknown testcase '" + std::string(value) + "'");
      spec.testcase = *tc;
    } else if (key == "backend") {
      const auto b = circuits::backend_from_string(value);
      if (!b) bad_spec("unknown backend '" + std::string(value) + "'");
      spec.backend = *b;
    } else if (key == "algorithm") {
      const auto a = algorithm_from_string(value);
      if (!a) bad_spec("unknown algorithm '" + std::string(value) + "'");
      spec.algorithm = *a;
    } else if (key == "method") {
      const auto m = verif_method_from_string(value);
      if (!m) bad_spec("unknown verification method '" + std::string(value) + "'");
      spec.method = *m;
    } else if (key == "corner_filter") {
      if (value != "all" && value != "cold_lv") {
        bad_spec("corner_filter must be 'all' or 'cold_lv', got '" + std::string(value) + "'");
      }
      spec.corner_filter = std::string(value);
    } else if (key == "seed") {
      spec.seed = parse_u64(key, value);
    } else if (key == "max_iterations") {
      spec.max_iterations = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "n_opt_samples") {
      spec.n_opt_samples = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "use_ensemble_critic") {
      spec.use_ensemble_critic = parse_bool(key, value);
    } else if (key == "use_mu_sigma") {
      spec.use_mu_sigma = parse_bool(key, value);
    } else if (key == "use_reordering") {
      spec.use_reordering = parse_bool(key, value);
    } else if (key == "max_simulations") {
      spec.budget.max_simulations = parse_u64(key, value);
    } else if (key == "budget_iterations") {
      spec.budget.max_iterations = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "max_wall_seconds") {
      spec.budget.max_wall_seconds = parse_double(key, value);
    } else if (key == "cost_per_simulation") {
      spec.cost.per_simulation = parse_double(key, value);
    } else if (key == "cost_per_rl_iteration") {
      spec.cost.per_rl_iteration = parse_double(key, value);
    } else if (key == "parallelism") {
      spec.engine.parallelism = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "cache_capacity") {
      spec.engine.cache_capacity = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "dc_warm_start") {
      spec.engine.dc_warm_start = parse_bool(key, value);
    } else if (key == "batched_draws" || key == "newton_bypass" || key == "spice_noise" ||
               key == "surrogate" || key == "recovery" || key == "degrade_to_behavioral") {
      // Retired keys: every spec written before their removal carries them
      // at 0, so 0 still loads (and re-saves without them); 1 asks for a
      // code path that no longer exists.
      if (parse_bool(key, value)) retired_value(key, "0");
    } else if (key == "max_eval_retries" || key == "eval_deadline_steps") {
      if (parse_u64(key, value) != 0) retired_value(key, "0");
    } else if (key == "min_parallel_batch") {
      // Retired knobs that became constants: the one value every spec
      // carried loads.
      if (parse_u64(key, value) != 8) retired_value(key, "8");
    } else if (key == "cache_quantum") {
      if (parse_double(key, value) != 1e-15) retired_value(key, "1e-15");
    } else if (key == "adaptive_timestep") {
      // Retired the other way round: every spec written since the adaptive
      // grid became the default carries 1, which still loads; 0 asks for
      // the fixed grid, and silently re-running it on the adaptive one
      // would change the numerics of a resumed session.
      if (!parse_bool(key, value)) retired_value(key, "1");
    } else if (key == "mos_model") {
      // Same for the channel model: `ekv` loads, `level1` is gone.
      if (value == "level1") retired_value(key, "'ekv'");
      if (value != "ekv") bad_spec("unknown mos_model '" + std::string(value) + "'");
    } else if (key == "cache_path") {
      spec.engine.cache_path = std::string(value);
    } else if (key == "surrogate_keep") {
      // Tuning of the retired surrogate: still type-checked, then ignored
      // (it only acted under surrogate=1, which no longer loads).
      (void)parse_double(key, value);
    } else if (key == "surrogate_warmup") {
      (void)parse_u64(key, value);
    } else if (key == "progress_log") {
      spec.progress_log = parse_bool(key, value);
    } else {
      bad_spec("unknown key '" + std::string(key) + "'");
    }
  }
  return spec;
}

std::unique_ptr<Optimizer> make_optimizer(const RunSpec& spec,
                                          circuits::TestbenchPtr testbench) {
  if (!testbench) throw std::invalid_argument("make_optimizer: null testbench");
  validate_scalars(spec);
  SessionConfig session;
  session.method = spec.method;
  session.corner_filter = spec.corner_filter;
  session.n_opt_samples = spec.n_opt_samples;
  session.max_iterations = spec.max_iterations;
  session.seed = spec.seed;
  session.cost = spec.cost;
  session.engine = spec.engine;
  std::unique_ptr<Optimizer> optimizer;
  switch (spec.algorithm) {
    case Algorithm::Glova: {
      GlovaConfig cfg{session};
      cfg.use_ensemble_critic = spec.use_ensemble_critic;
      cfg.use_mu_sigma = spec.use_mu_sigma;
      cfg.use_reordering = spec.use_reordering;
      optimizer = std::make_unique<GlovaOptimizer>(std::move(testbench), cfg);
      break;
    }
    case Algorithm::PvtSizing:
      optimizer = std::make_unique<baselines::PvtSizingOptimizer>(
          std::move(testbench), baselines::PvtSizingConfig{session});
      break;
    case Algorithm::RobustAnalog:
      optimizer = std::make_unique<baselines::RobustAnalogOptimizer>(
          std::move(testbench), baselines::RobustAnalogConfig{session});
      break;
  }
  optimizer->set_budget(spec.budget);
  if (spec.progress_log) optimizer->add_observer(std::make_shared<ProgressLogObserver>());
  return optimizer;
}

std::unique_ptr<Optimizer> make_optimizer(const RunSpec& spec) {
  spec.validate();
  return make_optimizer(spec, circuits::make_testbench(spec.testcase, spec.backend));
}

}  // namespace glova::core
