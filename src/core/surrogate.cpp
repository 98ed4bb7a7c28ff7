#include "core/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/state_io.hpp"

namespace glova::core {

namespace {

/// Fixed initialization seed: surrogate-on runs are deterministic, and a
/// save -> load -> save round trip is a byte fixed point.
constexpr std::uint64_t kInitSeed = 0x51093A7EC0FFEEull;

/// Floor on normalization scales so constant coordinates (zero-padded
/// mismatch slots, single-corner campaigns) neither divide by zero nor
/// dominate the extremity ranking through numerical noise.
constexpr double kStdFloor = 1e-8;

}  // namespace

SurrogateModel::SurrogateModel(SurrogateConfig config) : config_(config) {
  if (config_.keep <= 0.0 || config_.keep > 1.0) {
    throw std::invalid_argument("SurrogateModel: keep must be in (0, 1]");
  }
  if (config_.hidden_width == 0) {
    throw std::invalid_argument("SurrogateModel: hidden_width must be >= 1");
  }
}

std::size_t SurrogateModel::input_dim() const { return mlp_ ? mlp_->input_dim() : 0; }
std::size_t SurrogateModel::output_dim() const { return mlp_ ? mlp_->output_dim() : 0; }

void SurrogateModel::build(std::size_t in, std::size_t out) {
  if (in == 0 || out == 0) {
    throw std::invalid_argument("SurrogateModel: input and output must be non-empty");
  }
  Rng rng(kInitSeed);
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<std::size_t>{in, config_.hidden_width, config_.hidden_width, out},
      nn::Activation::Tanh, nn::Activation::Identity, rng);
  nn::AdamConfig adam;
  adam.learning_rate = config_.learning_rate;
  adam_ = std::make_unique<nn::Adam>(mlp_->parameter_count(), adam);
  in_mean_.assign(in, 0.0);
  in_m2_.assign(in, 0.0);
  out_mean_.assign(out, 0.0);
  out_m2_.assign(out, 0.0);
  grad_.assign(mlp_->parameter_count(), 0.0);
}

double SurrogateModel::in_std(std::size_t j) const {
  const double n = observations_ > 1 ? static_cast<double>(observations_ - 1) : 1.0;
  return std::max(std::sqrt(in_m2_[j] / n), kStdFloor);
}

double SurrogateModel::out_std(std::size_t j) const {
  const double n = observations_ > 1 ? static_cast<double>(observations_ - 1) : 1.0;
  return std::max(std::sqrt(out_m2_[j] / n), kStdFloor);
}

void SurrogateModel::observe(std::span<const double> input, std::span<const double> metrics) {
  if (!mlp_) build(input.size(), metrics.size());
  if (input.size() != mlp_->input_dim() || metrics.size() != mlp_->output_dim()) {
    throw std::invalid_argument("SurrogateModel::observe: dimension mismatch (model is " +
                                std::to_string(mlp_->input_dim()) + "->" +
                                std::to_string(mlp_->output_dim()) + ", sample is " +
                                std::to_string(input.size()) + "->" +
                                std::to_string(metrics.size()) + ")");
  }
  for (const double v : input) {
    if (!std::isfinite(v)) return;
  }
  for (const double m : metrics) {
    if (!std::isfinite(m)) return;
  }
  ++observations_;
  for (std::size_t j = 0; j < input.size(); ++j) {
    const double d = input[j] - in_mean_[j];
    in_mean_[j] += d / static_cast<double>(observations_);
    in_m2_[j] += d * (input[j] - in_mean_[j]);
  }
  for (std::size_t j = 0; j < metrics.size(); ++j) {
    const double d = metrics[j] - out_mean_[j];
    out_mean_[j] += d / static_cast<double>(observations_);
    out_m2_[j] += d * (metrics[j] - out_mean_[j]);
  }
  normalize_input(input);
  const std::span<const double> y = mlp_->forward(zx_, ws_);
  dLdy_.resize(y.size());
  for (std::size_t j = 0; j < y.size(); ++j) {
    const double zt = (metrics[j] - out_mean_[j]) / out_std(j);
    dLdy_[j] = (y[j] - zt) / static_cast<double>(y.size());
  }
  std::fill(grad_.begin(), grad_.end(), 0.0);
  mlp_->backward(ws_, scratch_, dLdy_, grad_, {});
  adam_->step(mlp_->parameters(), grad_);
  ++train_steps_;
}

std::vector<double> SurrogateModel::predict(std::span<const double> input) {
  if (!mlp_) throw std::logic_error("SurrogateModel::predict: model not built");
  if (input.size() != mlp_->input_dim()) {
    throw std::invalid_argument("SurrogateModel::predict: input dimension mismatch");
  }
  normalize_input(input);
  const std::span<const double> z = mlp_->forward(zx_, ws_);
  std::vector<double> y(z.size());
  for (std::size_t j = 0; j < y.size(); ++j) y[j] = z[j] * out_std(j) + out_mean_[j];
  return y;
}

void SurrogateModel::normalize_input(std::span<const double> input) {
  zx_.resize(input.size());
  for (std::size_t j = 0; j < input.size(); ++j) zx_[j] = (input[j] - in_mean_[j]) / in_std(j);
}

double SurrogateModel::extremity(std::span<const double> prediction) const {
  if (!mlp_ || prediction.size() != mlp_->output_dim()) return 0.0;
  double score = 0.0;
  for (std::size_t j = 0; j < prediction.size(); ++j) {
    score = std::max(score, std::abs(prediction[j] - out_mean_[j]) / out_std(j));
  }
  return score;
}

void SurrogateModel::save(std::ostream& os) const {
  if (!mlp_) throw std::logic_error("SurrogateModel::save: model not built");
  os << "surrogate v1\n";
  os << "dims " << mlp_->input_dim() << ' ' << mlp_->output_dim() << ' ' << config_.hidden_width
     << '\n';
  os << "observations " << observations_ << '\n';
  os << "train-steps " << train_steps_ << '\n';
  state::write_doubles(os, "in-mean", in_mean_);
  state::write_doubles(os, "in-m2", in_m2_);
  state::write_doubles(os, "out-mean", out_mean_);
  state::write_doubles(os, "out-m2", out_m2_);
  mlp_->save(os);
  adam_->save(os);
}

void SurrogateModel::load(std::istream& is) {
  const std::string version = state::expect_line(is, "surrogate");
  if (version != "v1") {
    state::bad("unsupported surrogate-state version '" + version + "' (this build reads v1)");
  }
  std::size_t in = 0;
  std::size_t out = 0;
  std::size_t hidden = 0;
  {
    std::istringstream line(state::expect_line(is, "dims"));
    if (!(line >> in >> out >> hidden) || in == 0 || out == 0 || hidden == 0) {
      state::bad("malformed surrogate dims");
    }
    if (in > state::kMaxCount || out > state::kMaxCount || hidden > state::kMaxCount) {
      state::bad("implausible surrogate dims");
    }
  }
  if (mlp_ && (mlp_->input_dim() != in || mlp_->output_dim() != out)) {
    state::bad("surrogate state is for a " + std::to_string(in) + "->" + std::to_string(out) +
               " model, this one is " + std::to_string(mlp_->input_dim()) + "->" +
               std::to_string(mlp_->output_dim()));
  }
  const std::size_t observations =
      state::parse_u64(state::expect_line(is, "observations"), "surrogate observations");
  const std::uint64_t train_steps =
      state::parse_u64(state::expect_line(is, "train-steps"), "surrogate train steps");
  std::vector<double> in_mean = state::read_doubles(is, "in-mean");
  std::vector<double> in_m2 = state::read_doubles(is, "in-m2");
  std::vector<double> out_mean = state::read_doubles(is, "out-mean");
  std::vector<double> out_m2 = state::read_doubles(is, "out-m2");
  if (in_mean.size() != in || in_m2.size() != in || out_mean.size() != out ||
      out_m2.size() != out) {
    state::bad("surrogate statistics do not match the stated dims");
  }
  // Rebuild with the *stored* width so the parameter counts line up even if
  // the caller's config differs; the policy knobs (keep, warmup) stay ours.
  config_.hidden_width = hidden;
  build(in, out);
  mlp_->load(is);
  adam_->load(is);
  observations_ = observations;
  train_steps_ = train_steps;
  in_mean_ = std::move(in_mean);
  in_m2_ = std::move(in_m2);
  out_mean_ = std::move(out_mean);
  out_m2_ = std::move(out_m2);
}

}  // namespace glova::core
