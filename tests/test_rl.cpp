// Tests for the RL layer: buffers, the ensemble critic's risk bound (Eq. 6)
// and its gradients, and agent learning on a controllable toy landscape.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "counting_new.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "rl/agent.hpp"
#include "rl/ensemble_critic.hpp"
#include "rl/replay_buffer.hpp"

namespace glova::rl {
namespace {

/// FNV-1a over raw bytes.  Doubles are hashed by their IEEE-754 bit pattern,
/// so a last-bit drift anywhere changes the digest.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void add(std::span<const double> v) {
    for (const double d : v) add(d);
  }
  void add(std::string_view s) { bytes(s.data(), s.size()); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// A fixed-seed agent session at design dimension p: warm-up updates, then
/// screened / plain proposals interleaved with critic bounds, critic input
/// gradients and further updates, ending with the full save() text.
void hash_agent_session(std::size_t p, Fnv1a& h) {
  RiskSensitiveAgent agent(p, AgentConfig{}, Rng(0x601D + p));
  WorstCaseReplayBuffer buffer;
  // Smooth landscape with an off-centre optimum, capped at the success
  // reward like Eq. (4).
  const auto reward = [p](std::span<const double> x) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double t = x[j] - (j % 2 == 0 ? 0.3 : 0.7);
      d2 += t * t;
    }
    return std::min(0.2, 0.05 - d2 / static_cast<double>(p));
  };
  Rng data(p);
  for (int i = 0; i < 16; ++i) {
    const std::vector<double> x = data.uniform_vector(p, 0.0, 1.0);
    buffer.add(x, reward(x));
  }
  for (int i = 0; i < 100; ++i) h.add(agent.update(buffer));
  std::vector<double> x_last(p, 0.5);
  for (int it = 0; it < 40; ++it) {
    const std::vector<double> x_new =
        it % 5 == 4 ? agent.propose(x_last) : agent.propose_screened(x_last, 8);
    h.add(x_new);
    h.add(agent.exploration_noise());
    const EnsembleCritic::Bound b = agent.critic().bound(x_new);
    h.add(b.mean);
    h.add(b.std);
    h.add(b.risk_adjusted);
    std::vector<double> dx(p);
    agent.critic().input_gradient(0.5 - b.risk_adjusted, dx);
    h.add(dx);
    buffer.add(x_new, reward(x_new));
    for (int e = 0; e < 3; ++e) h.add(agent.update(buffer));
    x_last = x_new;
  }
  h.add(agent.act(x_last));
  std::ostringstream state;
  agent.save(state);
  h.add(state.str());
}

/// A {9, 64, 64, 4} regressor (the shape of the since-removed engine
/// surrogate) trained one Adam step per sample, with inference forwards and
/// input gradients in between.  Part of the recorded digest, so it stays.
void hash_surrogate_loop(Fnv1a& h) {
  Rng rng(0x5A77);
  nn::Mlp net({9, 64, 64, 4}, nn::Activation::Tanh, nn::Activation::Identity, rng);
  nn::Adam adam(net.parameter_count());
  nn::Mlp::Workspace ws;
  nn::Mlp::Workspace infer;
  nn::Mlp::Scratch scratch;
  std::vector<double> grad(net.parameter_count());
  std::vector<double> dLdy(net.output_dim());
  std::vector<double> dx(net.input_dim());
  for (int step = 0; step < 200; ++step) {
    const std::vector<double> x = rng.uniform_vector(9, -2.0, 2.0);
    const std::span<const double> y = net.forward(x, ws);
    h.add(y);
    for (std::size_t j = 0; j < y.size(); ++j) {
      dLdy[j] = (y[j] - std::sin(x[j] + x[j + 4])) / static_cast<double>(y.size());
    }
    std::fill(grad.begin(), grad.end(), 0.0);
    net.backward(ws, scratch, dLdy, grad, dx);
    if (step % 10 == 0) h.add(dx);
    adam.step(net.parameters(), grad);
    if (step % 25 == 0) h.add(net.forward(rng.uniform_vector(9, -1.0, 1.0), infer));
  }
  std::ostringstream state;
  net.save(state);
  adam.save(state);
  h.add(state.str());
}

// Bit-identity pin for the whole NN hot path (Mlp forward/backward, Adam,
// ensemble critic bound and input gradient, agent update / propose).  The
// pinned-seed regression only checks counts, which can survive a last-bit
// drift; this digest cannot.  It must hold with and without
// GLOVA_SPICE_NATIVE_KERNELS.  The sessions run at the SAL, FIA and OCSA
// design dimensions (14, 6, 12).  The digest was recorded with glibc's libm
// on x86-64 and depends on its tanh/exp.  A performance change must leave it
// alone; only an intentional numerics change re-records it (the failure
// message prints the new digest).
TEST(GoldenBits, AgentAndSurrogateLoopsAreBitIdentical) {
  Fnv1a h;
  for (const std::size_t p : {14u, 6u, 12u}) hash_agent_session(p, h);
  hash_surrogate_loop(h);
  EXPECT_EQ(h.value(), 0x39a135d57981170cull) << std::hex << "digest 0x" << h.value();
}

// update(buffer, R) runs the actor's backward, Adam step and next forward
// beside the critic's training; it must leave the agent exactly as R calls
// of update(buffer) do, RNG stream included.  A proposal between the calls
// leaves an n = 1 pass in the actor's workspace and an n = 8 bound in the
// critic's.  The single-round side is pinned too: the digest was recorded
// with the serial update before the multi-round schedule, so a change of
// the draw order fails here even where both sides share it.
TEST(Agent, MultiRoundUpdateMatchesSingleRounds) {
  const auto saved = [](const RiskSensitiveAgent& agent) {
    std::ostringstream state;
    agent.save(state);
    return state.str();
  };
  Fnv1a h;
  for (const std::size_t p : {14u, 6u, 12u}) {
    for (const std::size_t rounds : {1u, 2u, 3u, 100u}) {
      RiskSensitiveAgent multi(p, AgentConfig{}, Rng(0x5E55 + 7 * p + rounds));
      RiskSensitiveAgent single(p, AgentConfig{}, Rng(0x5E55 + 7 * p + rounds));
      WorstCaseReplayBuffer buffer;
      Rng data(p + 100 * rounds);
      for (int i = 0; i < 16; ++i) {
        const std::vector<double> x = data.uniform_vector(p, 0.0, 1.0);
        buffer.add(x, data.uniform(-1.0, 0.2));
      }
      const std::vector<double> x_last(p, 0.5);
      for (int call = 0; call < 2; ++call) {
        const double multi_loss = multi.update(buffer, rounds);
        double loss = 0.0;
        for (std::size_t r = 0; r < rounds; ++r) loss = single.update(buffer);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(multi_loss), std::bit_cast<std::uint64_t>(loss))
            << "p " << p << ", " << rounds << " rounds, call " << call;
        h.add(loss);
        const std::vector<double> x = single.propose_screened(x_last, 8);
        EXPECT_EQ(multi.propose_screened(x_last, 8), x);
        h.add(x);
        buffer.add(x, data.uniform(-1.0, 0.2));
      }
      // Weights, Adam moments and the RNG stream: a drift cannot heal.
      const std::string state = saved(single);
      EXPECT_TRUE(saved(multi) == state) << "p " << p << ", " << rounds << " rounds";
      h.add(state);
    }
  }
  EXPECT_EQ(h.value(), 0xa662f4e692df5f63ull) << std::hex << "digest 0x" << h.value();
}

TEST(Agent, WarmUpdateAllocatesNothing) {
  RiskSensitiveAgent agent(14, AgentConfig{}, Rng(12));
  WorstCaseReplayBuffer buffer;
  Rng data(13);
  for (int i = 0; i < 32; ++i) {
    buffer.add(data.uniform_vector(14, 0.0, 1.0), data.uniform(-1.0, 0.2));
  }
  (void)agent.update(buffer);  // sizes the agent's and critic's scratch
  g_alloc_count.store(0);
  g_alloc_counting.store(true);
  for (int i = 0; i < 5; ++i) (void)agent.update(buffer);
  (void)agent.update(buffer, 3);
  g_alloc_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);
}

TEST(ReplayBuffer, FifoEvictionAtCapacity) {
  WorstCaseReplayBuffer buffer(3);
  for (int i = 0; i < 5; ++i) buffer.add({static_cast<double>(i)}, i * 0.1);
  EXPECT_EQ(buffer.size(), 3u);
  // Entries 3, 4 remain plus slot recycled; best() survives eviction.
  ASSERT_TRUE(buffer.best().has_value());
  EXPECT_DOUBLE_EQ(buffer.best()->reward, 0.4);
}

TEST(ReplayBuffer, SampleFromEmptyThrows) {
  WorstCaseReplayBuffer buffer(4);
  Rng rng(1);
  std::vector<const Experience*> batch;
  EXPECT_THROW(buffer.sample(2, rng, batch), std::logic_error);
}

TEST(ReplayBuffer, SampleDrawsStoredEntries) {
  WorstCaseReplayBuffer buffer(8);
  buffer.add({1.0}, -0.5);
  buffer.add({2.0}, 0.2);
  Rng rng(2);
  std::vector<const Experience*> batch;
  buffer.sample(20, rng, batch);
  ASSERT_EQ(batch.size(), 20u);
  for (const Experience* e : batch) {
    EXPECT_TRUE(e == &buffer.at(0) || e == &buffer.at(1));
  }
}

TEST(LastWorstBuffer, TracksWorstCorner) {
  LastWorstBuffer buffer(4);
  buffer.update(0, 0.2);
  buffer.update(1, -0.3);
  buffer.update(2, 0.1);
  buffer.update(3, -0.1);
  EXPECT_EQ(buffer.worst_corner(), 1u);
  const auto order = buffer.corners_worst_first();
  EXPECT_EQ(order.front(), 1u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order.back(), 0u);
}

TEST(EnsembleCritic, BoundMathMatchesManualComputation) {
  Rng rng(3);
  CriticConfig cfg;
  cfg.ensemble_size = 5;
  cfg.beta1 = -3.0;
  EnsembleCritic critic(4, cfg, rng);
  const std::vector<double> x = {0.1, 0.4, 0.6, 0.9};
  const auto b = critic.bound(x);
  EXPECT_NEAR(b.risk_adjusted, b.mean - 3.0 * b.std, 1e-12);
  EXPECT_GE(b.std, 0.0);
  EXPECT_EQ(critic.bound(x).risk_adjusted, b.risk_adjusted);
}

TEST(EnsembleCritic, NegativeBeta1IsConservative) {
  Rng rng(4);
  CriticConfig risk_averse;
  risk_averse.beta1 = -3.0;
  CriticConfig neutral;
  neutral.beta1 = 0.0;
  EnsembleCritic a(3, risk_averse, rng);
  Rng rng2(4);
  EnsembleCritic b(3, neutral, rng2);
  const std::vector<double> x = {0.2, 0.5, 0.8};
  // Same weights (same seed): risk-averse bound <= neutral mean.
  EXPECT_LE(a.bound(x).risk_adjusted, b.bound(x).risk_adjusted + 1e-12);
}

TEST(EnsembleCritic, TrainingReducesLoss) {
  Rng rng(5);
  CriticConfig cfg;
  cfg.ensemble_size = 3;
  cfg.learning_rate = 3e-3;
  EnsembleCritic critic(2, cfg, rng);
  std::vector<Experience> data(32);
  Rng data_rng(6);
  for (Experience& e : data) {
    e.x01 = data_rng.uniform_vector(2, 0.0, 1.0);
    e.reward = -std::abs(e.x01[0] - 0.5);
  }
  std::vector<const Experience*> batch;
  for (const Experience& e : data) batch.push_back(&e);
  const std::vector<std::vector<const Experience*>> batches(critic.ensemble_size(), batch);
  double first = 0.0;
  double last = 0.0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    const double loss = critic.train(batches);
    if (epoch == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, 0.2 * first);
}

TEST(EnsembleCritic, InputGradientMatchesFiniteDifference) {
  Rng rng(7);
  CriticConfig cfg;
  cfg.ensemble_size = 4;
  cfg.beta1 = -2.0;
  EnsembleCritic critic(3, cfg, rng);
  const std::vector<double> x = {0.3, 0.6, 0.2};
  const double dLdq = 1.7;
  std::vector<double> grad(x.size());
  EXPECT_THROW(critic.input_gradient(dLdq, grad), std::logic_error);  // no bound() yet
  (void)critic.bound(x);
  critic.input_gradient(dLdq, grad);
  const double eps = 1e-6;
  for (std::size_t d = 0; d < x.size(); ++d) {
    std::vector<double> xp = x;
    std::vector<double> xm = x;
    xp[d] += eps;
    xm[d] -= eps;
    const double fd =
        dLdq * (critic.bound(xp).risk_adjusted - critic.bound(xm).risk_adjusted) / (2 * eps);
    EXPECT_NEAR(grad[d], fd, 1e-5) << "dim " << d;
  }
}

TEST(EnsembleCritic, LoadEndsTheLastBound) {
  CriticConfig cfg;
  cfg.hidden = 16;
  Rng rng_a(11);
  EnsembleCritic a(3, cfg, rng_a);
  Rng rng_b(12);
  EnsembleCritic b(3, cfg, rng_b);
  const std::vector<double> x = {0.3, 0.6, 0.2};
  (void)b.bound(x);
  std::stringstream state;
  a.save(state);
  b.load(state);
  // b's recorded activations belong to its old weights.
  std::vector<double> dx(x.size());
  EXPECT_THROW(b.input_gradient(1.0, dx), std::logic_error);
  // A fresh bound() gives a's gradient.
  (void)a.bound(x);
  (void)b.bound(x);
  std::vector<double> dx_a(x.size());
  a.input_gradient(1.0, dx_a);
  b.input_gradient(1.0, dx);
  EXPECT_EQ(dx, dx_a);
}

TEST(Agent, ProposalsStayInUnitBox) {
  AgentConfig cfg;
  RiskSensitiveAgent agent(5, cfg, Rng(8));
  const std::vector<double> x_last(5, 0.5);
  for (int i = 0; i < 50; ++i) {
    for (const double v : agent.propose(x_last)) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
  EXPECT_LT(agent.exploration_noise(), cfg.noise_initial);  // decays
}

TEST(Agent, ScreenedProposalPrefersHighBound) {
  AgentConfig cfg;
  RiskSensitiveAgent agent(2, cfg, Rng(9));
  // Train the critic so that reward = -(x0 - 0.8)^2.
  WorstCaseReplayBuffer buffer;
  Rng data(10);
  for (int i = 0; i < 200; ++i) {
    const auto x = data.uniform_vector(2, 0.0, 1.0);
    buffer.add(x, -(x[0] - 0.8) * (x[0] - 0.8));
  }
  for (int i = 0; i < 300; ++i) (void)agent.update(buffer);
  // Screened proposals should concentrate near x0 = 0.8 versus x0 = 0.2.
  const std::vector<double> x_last = {0.5, 0.5};
  double mean_x0 = 0.0;
  const int n = 30;
  for (int i = 0; i < n; ++i) mean_x0 += agent.propose_screened(x_last, 8)[0] / n;
  EXPECT_GT(mean_x0, 0.5);
}

TEST(Agent, LearnsToProposeHighRewardDesigns) {
  // End-to-end mini-loop on a deterministic landscape: the agent should walk
  // its proposals into the high-reward region around (0.7, 0.3).
  AgentConfig cfg;
  RiskSensitiveAgent agent(2, cfg, Rng(11));
  WorstCaseReplayBuffer buffer;
  const auto reward = [](const std::vector<double>& x) {
    const double d2 = (x[0] - 0.7) * (x[0] - 0.7) + (x[1] - 0.3) * (x[1] - 0.3);
    return d2 < 0.005 ? 0.2 : -d2;
  };
  std::vector<double> x_last = {0.2, 0.8};
  buffer.add(x_last, reward(x_last));
  double best = -1e9;
  for (int iter = 0; iter < 250; ++iter) {
    const auto x_new = agent.propose_screened(x_last, 8);
    const double r = reward(x_new);
    best = std::max(best, r);
    buffer.add(x_new, r);
    for (int e = 0; e < 3; ++e) (void)agent.update(buffer);
    x_last = x_new;
    if (const auto top = buffer.best(); top && r < top->reward - 0.05) x_last = top->x01;
    if (best >= 0.2) break;
  }
  EXPECT_GE(best, -0.05);
}

}  // namespace
}  // namespace glova::rl
