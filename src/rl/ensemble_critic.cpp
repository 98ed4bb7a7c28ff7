#include "rl/ensemble_critic.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "common/state_io.hpp"
#include "common/thread_pool.hpp"
#include "nn/loss.hpp"

namespace glova::rl {

namespace {

/// One member's scratch for train() and input_gradient().
struct MemberScratch {
  std::vector<double> grad;  ///< parameter gradient
  nn::Mlp::Scratch mlp;      ///< backward()'s buffers
  std::vector<double> x;     ///< the member's training batch, lane-major
  std::vector<double> dl;    ///< dL/d(member output) per sample
  std::vector<double> dx;    ///< the member's input gradient
  double loss = 0.0;         ///< the member's batch loss
};

/// One call's scratch: a slot per member.
struct ScratchSet {
  std::vector<MemberScratch> members;
  std::unique_ptr<ScratchSet> next;  ///< the shelf's link
};

/// Process-wide free list of scratch sets.  A call borrows one set for its
/// fan-out and puts it back, so scratch memory follows the critics training
/// at the same moment, not the critics alive (a campaign keeps every
/// session's agent).  Once a set exists, borrowing allocates nothing.
class ScratchShelf {
 public:
  std::unique_ptr<ScratchSet> take() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (head_) {
        std::unique_ptr<ScratchSet> set = std::move(head_);
        head_ = std::move(set->next);
        return set;
      }
    }
    return std::make_unique<ScratchSet>();
  }
  void put_back(std::unique_ptr<ScratchSet> set) {
    const std::lock_guard<std::mutex> lock(mutex_);
    set->next = std::move(head_);
    head_ = std::move(set);
  }

 private:
  std::mutex mutex_;
  std::unique_ptr<ScratchSet> head_;  ///< guarded by mutex_
};

/// A scratch set borrowed for the scope, with a slot per member.
class BorrowedScratch {
 public:
  explicit BorrowedScratch(std::size_t members) : set_(shelf().take()) {
    if (set_->members.size() < members) set_->members.resize(members);
  }
  ~BorrowedScratch() { shelf().put_back(std::move(set_)); }
  BorrowedScratch(const BorrowedScratch&) = delete;
  BorrowedScratch& operator=(const BorrowedScratch&) = delete;

  MemberScratch& operator[](std::size_t i) { return set_->members[i]; }

 private:
  static ScratchShelf& shelf() {
    static ScratchShelf instance;
    return instance;
  }
  std::unique_ptr<ScratchSet> set_;
};

}  // namespace

EnsembleCritic::EnsembleCritic(std::size_t input_dim, const CriticConfig& config, Rng& rng)
    : config_(config) {
  if (config_.ensemble_size == 0) throw std::invalid_argument("EnsembleCritic: empty ensemble");
  models_.reserve(config_.ensemble_size);
  optimizers_.reserve(config_.ensemble_size);
  for (std::size_t i = 0; i < config_.ensemble_size; ++i) {
    Rng stream = rng.split(i + 1);
    // 4-layer network (paper Sec. IV-A): input -> h -> h -> h -> 1.
    models_.emplace_back(
        std::vector<std::size_t>{input_dim, config_.hidden, config_.hidden, config_.hidden, 1},
        nn::Activation::Tanh, nn::Activation::Identity, stream);
    optimizers_.emplace_back(models_.back().parameter_count(),
                             nn::AdamConfig{config_.learning_rate, 0.9, 0.999, 1e-8});
  }
  member_ws_.resize(config_.ensemble_size);
}

void EnsembleCritic::bound(std::span<const double> x, std::span<Bound> out) {
  const std::size_t n = out.size();
  if (n == 0 || x.size() != input_dim() * n) {
    throw std::invalid_argument("EnsembleCritic::bound: bad design batch size");
  }
  const std::size_t e = models_.size();
  outs_.resize(e * n);
  global_thread_pool().fork_join(e, [&](std::size_t i) {
    const std::span<const double> q = models_[i].forward(x, member_ws_[i]);
    std::copy(q.begin(), q.end(), outs_.begin() + static_cast<std::ptrdiff_t>(i * n));
  });
  last_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    double mean = 0.0;
    for (std::size_t i = 0; i < e; ++i) mean += outs_[i * n + s];
    mean /= static_cast<double>(e);
    double var = 0.0;
    for (std::size_t i = 0; i < e; ++i) {
      const double o = outs_[i * n + s];
      var += (o - mean) * (o - mean);
    }
    var = e > 1 ? var / static_cast<double>(e - 1) : 0.0;
    Bound& b = last_[s];
    b.mean = mean;
    b.std = std::sqrt(var);
    b.risk_adjusted = mean + config_.beta1 * b.std;
    out[s] = b;
  }
}

EnsembleCritic::Bound EnsembleCritic::bound(std::span<const double> x) {
  Bound b;
  bound(x, std::span<Bound>(&b, 1));
  return b;
}

double EnsembleCritic::train(std::span<const std::vector<const Experience*>> batches,
                             const std::function<void()>& alongside) {
  const std::size_t e = models_.size();
  if (batches.size() != e) throw std::invalid_argument("EnsembleCritic::train: one batch per member");
  for (const std::vector<const Experience*>& batch : batches) {
    if (batch.empty()) throw std::invalid_argument("EnsembleCritic::train: empty batch");
  }
  last_.clear();
  BorrowedScratch scratch(e);
  global_thread_pool().fork_join(alongside ? e + 1 : e, [&](std::size_t i) {
    if (i == e) {
      alongside();
      return;
    }
    const std::vector<const Experience*>& batch = batches[i];
    MemberScratch& m = scratch[i];
    nn::Mlp& model = models_[i];
    gather_designs(batch, input_dim(), m.x);
    const std::span<const double> q = model.forward(m.x, member_ws_[i]);
    const std::size_t n = batch.size();
    m.dl.resize(n);
    double loss = 0.0;
    const double scale = 1.0 / static_cast<double>(n);
    for (std::size_t s = 0; s < n; ++s) {
      const double pred = q[s] + config_.bias;
      loss += nn::mse(pred, batch[s]->reward) * scale;
      m.dl[s] = nn::mse_grad_scalar(pred, batch[s]->reward) * scale;
    }
    m.loss = loss;
    m.grad.assign(model.parameter_count(), 0.0);
    model.backward(member_ws_[i], m.mlp, m.dl, m.grad, {});
    optimizers_[i].step(model.parameters(), m.grad);
  });
  double loss = 0.0;
  for (std::size_t i = 0; i < e; ++i) loss += scratch[i].loss;
  return loss;
}

void EnsembleCritic::input_gradient(std::span<const double> dLdq, std::span<double> dx) {
  const std::size_t n = last_.size();
  if (n == 0) throw std::logic_error("EnsembleCritic::input_gradient: no bound() yet");
  if (dLdq.size() != n) {
    throw std::logic_error("EnsembleCritic::input_gradient: last bound() had another batch size");
  }
  if (dx.size() != input_dim() * n) {
    throw std::invalid_argument("EnsembleCritic::input_gradient: bad dx size");
  }
  // Q = mean_i Q_i + beta1 * sigma.  dQ/dQ_i = 1/E + beta1 * (Q_i - mean) /
  // ((E-1) * sigma); for sigma -> 0 only the mean term survives.
  const std::size_t e = models_.size();
  BorrowedScratch scratch(e);
  global_thread_pool().fork_join(e, [&](std::size_t i) {
    MemberScratch& m = scratch[i];
    m.dl.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      double weight = 1.0 / static_cast<double>(e);
      if (e > 1 && last_[s].std > 1e-12) {
        weight += config_.beta1 * (outs_[i * n + s] - last_[s].mean) /
                  (static_cast<double>(e - 1) * last_[s].std);
      }
      m.dl[s] = dLdq[s] * weight;
    }
    m.dx.resize(dx.size());
    models_[i].backward(member_ws_[i], m.mlp, m.dl, {}, m.dx);
  });
  std::fill(dx.begin(), dx.end(), 0.0);
  for (std::size_t i = 0; i < e; ++i) {
    for (std::size_t d = 0; d < dx.size(); ++d) dx[d] += scratch[i].dx[d];
  }
}

void EnsembleCritic::input_gradient(double dLdq, std::span<double> dx) {
  input_gradient(std::span<const double>(&dLdq, 1), dx);
}

void EnsembleCritic::save(std::ostream& os) const {
  os << "critic " << models_.size() << '\n';
  for (std::size_t i = 0; i < models_.size(); ++i) {
    models_[i].save(os);
    optimizers_[i].save(os);
  }
}

void EnsembleCritic::load(std::istream& is) {
  const std::size_t n = state::parse_u64(state::expect_line(is, "critic"), "critic ensemble size");
  if (n != models_.size()) {
    state::bad("critic ensemble size mismatch: expected " + std::to_string(models_.size()) +
               ", got " + std::to_string(n));
  }
  last_.clear();
  for (std::size_t i = 0; i < models_.size(); ++i) {
    models_[i].load(is);
    optimizers_[i].load(is);
  }
}

}  // namespace glova::rl
