// The worst-case replay buffer (Fig. 2): each entry pairs a design with the
// *worst* reward observed across the sampled PVT/mismatch conditions, and
// the last-worst-case buffer tracks the most recent worst reward per corner
// so step 2 of the workflow can pick the worst corner without re-simulating.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace glova::rl {

struct Experience {
  std::vector<double> x01;  ///< normalized design
  double reward = 0.0;      ///< worst-case reward r_worst
};

/// The designs of `batch` lane-major, the batch layout nn::Mlp takes:
/// x[j * n + s] is coordinate j of batch[s], for n = batch.size().  Throws
/// std::invalid_argument when a design is not `dim` long.
void gather_designs(std::span<const Experience* const> batch, std::size_t dim,
                    std::vector<double>& x);

/// Bounded FIFO of worst-case experiences.
class WorstCaseReplayBuffer {
 public:
  explicit WorstCaseReplayBuffer(std::size_t capacity = 4096);

  void add(std::vector<double> x01, double reward);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const Experience& at(std::size_t i) const { return entries_[i]; }

  /// Sample `n` experiences uniformly with replacement into `out` (distinct
  /// batches per critic base model come from distinct calls / rng streams).
  /// The pointers stay valid until the next add() or load().
  void sample(std::size_t n, Rng& rng, std::vector<const Experience*>& out) const;

  /// Best experience seen so far (highest reward), if any.
  [[nodiscard]] std::optional<Experience> best() const;

  /// Text-serialize the full buffer (entries, FIFO cursor, best).  `load`
  /// replaces this buffer's contents; the stored capacity must match.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;  ///< FIFO cursor once full
  std::vector<Experience> entries_;
  std::optional<Experience> best_;
};

/// Last worst reward per PVT corner ("last worst-case buffer", Sec. III-C).
class LastWorstBuffer {
 public:
  explicit LastWorstBuffer(std::size_t corner_count);

  void update(std::size_t corner, double worst_reward);

  [[nodiscard]] std::size_t corner_count() const { return rewards_.size(); }
  [[nodiscard]] double reward(std::size_t corner) const { return rewards_[corner]; }

  /// Corner with the lowest (worst) last reward.
  [[nodiscard]] std::size_t worst_corner() const;

  /// Corner indices sorted worst-first (used by Algorithm 2's first phase).
  [[nodiscard]] std::vector<std::size_t> corners_worst_first() const;

  /// Text-serialize the per-corner rewards.  `load` requires the stored
  /// corner count to match this buffer's.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  std::vector<double> rewards_;
};

}  // namespace glova::rl
