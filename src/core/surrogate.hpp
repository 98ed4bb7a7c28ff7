// Online surrogate for speculative evaluation (the opt-in
// EngineConfig::surrogate mode; see docs/architecture.md#speculative-evaluation).
//
// A small nn::Mlp regressor from the engine's evaluation inputs (corner
// features + design vector + zero-padded mismatch draw) to the testbench's
// metric vector, trained one Adam step per *executed* simulation — exactly
// the observations the memo cache records, so the model never learns from
// its own predictions.  The engine uses it to rank each candidate batch by
// predicted extremity and only pays SPICE price for the tail that could
// decide the worst case; the pruned middle is answered from the model.
//
// Everything is deterministic: network initialization uses a fixed seed,
// normalization is running Welford statistics updated in observation order,
// and save()/load() round-trip the full state (statistics, Mlp parameters,
// Adam moments) through the state_io frame so a model persisted in the memo
// cache file resumes training bit-identically in the next session.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace glova::core {

struct SurrogateConfig {
  /// Fraction of each pre-ranked candidate batch SPICE confirms; in (0, 1].
  double keep = 0.5;
  /// Executed observations the model must train on before it may prune.
  std::size_t warmup = 64;
  /// Hidden-layer width of the {in, hidden, hidden, out} regressor.
  std::size_t hidden_width = 24;
  double learning_rate = 1e-3;
};

class SurrogateModel {
 public:
  explicit SurrogateModel(SurrogateConfig config = {});

  /// Train on one executed (input, metrics) pair.  The first call fixes the
  /// input/output dimensions and builds the network; later calls with other
  /// dimensions throw std::invalid_argument.  Non-finite samples (penalty
  /// sentinels from failed evaluations) are skipped — they would poison the
  /// running statistics.
  void observe(std::span<const double> input, std::span<const double> metrics);

  [[nodiscard]] bool built() const { return mlp_ != nullptr; }
  /// True once the model has trained on at least `warmup` observations.
  [[nodiscard]] bool ready() const { return built() && observations_ >= config_.warmup; }
  [[nodiscard]] std::size_t input_dim() const;
  [[nodiscard]] std::size_t output_dim() const;
  [[nodiscard]] std::size_t observation_count() const { return observations_; }
  [[nodiscard]] std::uint64_t train_steps() const { return train_steps_; }
  [[nodiscard]] const SurrogateConfig& config() const { return config_; }

  /// Predicted metric vector (denormalized).  Requires built().
  [[nodiscard]] std::vector<double> predict(std::span<const double> input);

  /// Ranking score of one prediction: the largest |z-score| of its
  /// components under the running output statistics.  Batches are confirmed
  /// highest-extremity-first — predicted outliers are the candidates that
  /// can decide a worst case, so they are the ones worth full SPICE price.
  [[nodiscard]] double extremity(std::span<const double> prediction) const;

  /// Full-state round trip ("surrogate v1" frame: dimensions, observation
  /// counters, Welford statistics, Mlp parameters, Adam moments).  load()
  /// throws on malformed input or a dimension mismatch with a built model.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  void build(std::size_t in, std::size_t out);
  /// zx_ = input under the running input statistics.
  void normalize_input(std::span<const double> input);
  [[nodiscard]] double in_std(std::size_t j) const;
  [[nodiscard]] double out_std(std::size_t j) const;

  SurrogateConfig config_;
  std::unique_ptr<nn::Mlp> mlp_;
  std::unique_ptr<nn::Adam> adam_;
  std::size_t observations_ = 0;
  std::uint64_t train_steps_ = 0;
  /// Running per-coordinate mean and sum of squared deviations (Welford).
  std::vector<double> in_mean_, in_m2_, out_mean_, out_m2_;
  // Scratch for observe() and predict(), sized on first use.
  nn::Mlp::Workspace ws_;
  nn::Mlp::Scratch scratch_;
  std::vector<double> zx_, dLdy_, grad_;
};

}  // namespace glova::core
