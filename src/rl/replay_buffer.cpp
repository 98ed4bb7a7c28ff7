#include "rl/replay_buffer.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/state_io.hpp"

namespace glova::rl {

WorstCaseReplayBuffer::WorstCaseReplayBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) throw std::invalid_argument("WorstCaseReplayBuffer: zero capacity");
  entries_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void WorstCaseReplayBuffer::add(std::vector<double> x01, double reward) {
  if (!best_ || reward > best_->reward) best_ = Experience{x01, reward};
  if (entries_.size() < capacity_) {
    entries_.push_back(Experience{std::move(x01), reward});
  } else {
    entries_[next_] = Experience{std::move(x01), reward};
    next_ = (next_ + 1) % capacity_;
  }
}

void gather_designs(std::span<const Experience* const> batch, std::size_t dim,
                    std::vector<double>& x) {
  const std::size_t n = batch.size();
  x.resize(dim * n);
  for (std::size_t s = 0; s < n; ++s) {
    const std::vector<double>& design = batch[s]->x01;
    if (design.size() != dim) throw std::invalid_argument("gather_designs: bad design size");
    for (std::size_t j = 0; j < dim; ++j) x[j * n + s] = design[j];
  }
}

void WorstCaseReplayBuffer::sample(std::size_t n, Rng& rng,
                                   std::vector<const Experience*>& out) const {
  if (entries_.empty()) throw std::logic_error("WorstCaseReplayBuffer::sample: empty");
  out.clear();
  for (std::size_t i = 0; i < n; ++i) out.push_back(&entries_[rng.index(entries_.size())]);
}

std::optional<Experience> WorstCaseReplayBuffer::best() const { return best_; }

namespace {

void write_experience(std::ostream& os, const Experience& e) {
  std::vector<double> row;
  row.reserve(e.x01.size() + 1);
  row.push_back(e.reward);
  row.insert(row.end(), e.x01.begin(), e.x01.end());
  state::write_doubles(os, "e", row);
}

Experience read_experience(std::istream& is) {
  std::vector<double> row = state::read_doubles(is, "e");
  if (row.empty()) state::bad("replay experience missing reward");
  Experience e;
  e.reward = row.front();
  e.x01.assign(row.begin() + 1, row.end());
  return e;
}

}  // namespace

void WorstCaseReplayBuffer::save(std::ostream& os) const {
  os << "replay " << capacity_ << ' ' << next_ << ' ' << entries_.size() << ' '
     << (best_ ? 1 : 0) << '\n';
  for (const Experience& e : entries_) write_experience(os, e);
  if (best_) write_experience(os, *best_);
}

void WorstCaseReplayBuffer::load(std::istream& is) {
  std::istringstream head(state::expect_line(is, "replay"));
  std::size_t capacity = 0, next = 0, count = 0;
  int has_best = 0;
  if (!(head >> capacity >> next >> count >> has_best)) state::bad("malformed replay header");
  if (capacity != capacity_) {
    state::bad("replay buffer capacity mismatch: expected " + std::to_string(capacity_) + ", got " +
               std::to_string(capacity));
  }
  if (count > capacity || next >= capacity || count > state::kMaxCount) {
    state::bad("implausible replay buffer header");
  }
  std::vector<Experience> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) entries.push_back(read_experience(is));
  std::optional<Experience> best;
  if (has_best != 0) best = read_experience(is);
  next_ = next;
  entries_ = std::move(entries);
  best_ = std::move(best);
}

LastWorstBuffer::LastWorstBuffer(std::size_t corner_count) : rewards_(corner_count, -1.0) {
  if (corner_count == 0) throw std::invalid_argument("LastWorstBuffer: zero corners");
}

void LastWorstBuffer::update(std::size_t corner, double worst_reward) {
  if (corner >= rewards_.size()) throw std::out_of_range("LastWorstBuffer::update");
  rewards_[corner] = worst_reward;
}

std::size_t LastWorstBuffer::worst_corner() const {
  return static_cast<std::size_t>(
      std::min_element(rewards_.begin(), rewards_.end()) - rewards_.begin());
}

void LastWorstBuffer::save(std::ostream& os) const {
  state::write_doubles(os, "last_worst", rewards_);
}

void LastWorstBuffer::load(std::istream& is) {
  std::vector<double> rewards = state::read_doubles(is, "last_worst");
  if (rewards.size() != rewards_.size()) {
    state::bad("LastWorstBuffer corner count mismatch: expected " + std::to_string(rewards_.size()) +
               ", got " + std::to_string(rewards.size()));
  }
  rewards_ = std::move(rewards);
}

std::vector<std::size_t> LastWorstBuffer::corners_worst_first() const {
  std::vector<std::size_t> order(rewards_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return rewards_[a] < rewards_[b]; });
  return order;
}

}  // namespace glova::rl
