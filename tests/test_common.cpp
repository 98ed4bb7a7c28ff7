// Tests for the common substrate: deterministic RNG, stream splitting,
// thread pool (parallel_for and fork_join), units, the strict unsigned
// parser behind every text format.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/state_io.hpp"
#include "common/text.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "counting_new.hpp"

namespace glova {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, SplitStreamsAreIndependentOfDrawOrder) {
  Rng root(7);
  Rng child_a = root.split(3);
  // Drawing from the root must not perturb an already-split child.
  (void)root.uniform();
  Rng child_b = Rng(7).split(3);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(child_a.uniform(), child_b.uniform());
}

TEST(Rng, SplitChildrenDiffer) {
  Rng root(7);
  Rng a = root.split(1);
  Rng b = root.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(1.5, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 1.5, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, NormalZeroSigmaIsMean) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.normal(3.25, 0.0), 3.25);
}

TEST(Rng, NormalNegativeSigmaThrows) {
  Rng rng(1);
  EXPECT_THROW((void)rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, IndexBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(7), 7u);
  EXPECT_THROW((void)rng.index(0), std::invalid_argument);
}

// The seed of a saved stream takes no sign: "-1 <state>" must fail to
// restore instead of keeping 2^64 - 1.
TEST(Rng, RestoreRejectsASignedSeed) {
  const std::string saved = Rng(7).save();
  const std::string state = saved.substr(saved.find(' '));
  Rng restored(1);
  restored.restore("7" + state);
  EXPECT_EQ(restored.seed(), 7u);
  for (const char* seed : {"-1", "+7"}) {
    EXPECT_THROW(restored.restore(seed + state), std::runtime_error) << seed;
  }
  EXPECT_EQ(restored.seed(), 7u);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(9);
  const auto sample = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const auto i : sample) EXPECT_LT(i, 50u);
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Splitmix, KnownNonTrivial) {
  // Distinct inputs map to distinct outputs; zero does not map to zero.
  EXPECT_NE(splitmix64(0), 0u);
  EXPECT_NE(splitmix64(1), splitmix64(2));
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroAndOneTasks) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ForkJoinRunsEveryIndexOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {0u, 1u, 2u, 5u, 100u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.fork_join(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "n = " << n;
  }
}

TEST(ThreadPool, ForkJoinRethrowsAfterEveryIndexRan) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(20);
  EXPECT_THROW(pool.fork_join(hits.size(),
                              [&](std::size_t i) {
                                hits[i].fetch_add(1);
                                if (i % 7 == 3) throw std::runtime_error("boom");
                              }),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The slot is free again.
  std::atomic<int> calls{0};
  pool.fork_join(8, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, ForkJoinRunsInlineOnAWorkerAndOnAOneWorkerPool) {
  ThreadPool pool(4);
  // Every worker runs a task that fans out: each fan-out stays on its own
  // worker, so none waits for a worker that is busy waiting itself.
  std::vector<std::atomic<int>> hits(4 * 6);
  std::atomic<int> moved{0};
  pool.parallel_for(4, [&](std::size_t t) {
    const std::thread::id me = std::this_thread::get_id();
    pool.fork_join(6, [&](std::size_t i) {
      hits[t * 6 + i].fetch_add(1);
      if (std::this_thread::get_id() != me) moved.fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(moved.load(), 0);
  // A one-worker pool (a one-CPU host) never fans out.
  ThreadPool single(1);
  const std::thread::id caller = std::this_thread::get_id();
  single.fork_join(6, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) moved.fetch_add(1);
  });
  EXPECT_EQ(moved.load(), 0);
}

TEST(ThreadPool, ConcurrentForkJoinsBothComplete) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 64;
  constexpr int kReps = 300;
  const auto run = [&pool](std::vector<std::uint64_t>& out, std::uint64_t salt) {
    for (int rep = 0; rep < kReps; ++rep) {
      pool.fork_join(out.size(), [&](std::size_t i) { out[i] += splitmix64(i + salt); });
    }
  };
  std::vector<std::uint64_t> a(kN, 0);
  std::vector<std::uint64_t> b(kN, 0);
  std::thread ta(run, std::ref(a), 1000);
  std::thread tb(run, std::ref(b), 2000);
  ta.join();
  tb.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(a[i], kReps * splitmix64(i + 1000)) << i;
    EXPECT_EQ(b[i], kReps * splitmix64(i + 2000)) << i;
  }
}

TEST(ThreadPool, WarmForkJoinAllocatesNothing) {
  ThreadPool pool(4);
  std::vector<double> out(16);
  const auto body = [&](std::size_t i) { out[i] += std::sqrt(static_cast<double>(i)); };
  pool.fork_join(out.size(), body);
  g_alloc_count.store(0);
  g_alloc_counting.store(true);
  for (int rep = 0; rep < 100; ++rep) pool.fork_join(out.size(), body);
  g_alloc_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);
  // The counter counts: parallel_for's queued tasks allocate.
  g_alloc_counting.store(true);
  pool.parallel_for(out.size(), body);
  g_alloc_counting.store(false);
  EXPECT_GT(g_alloc_count.load(), 0u);
}

TEST(Units, Conversions) {
  using namespace units::literals;
  EXPECT_DOUBLE_EQ(1.0_um, 1e-6);
  EXPECT_DOUBLE_EQ(2.5_pF, 2.5e-12);
  EXPECT_DOUBLE_EQ(4.0_ns, 4e-9);
  EXPECT_DOUBLE_EQ(units::celsius_to_kelvin(27.0), 300.15);
  EXPECT_NEAR(units::thermal_voltage(300.0), 0.02585, 1e-4);
}

TEST(Text, ParseUnsignedTakesDigitsOnly) {
  EXPECT_EQ(parse_unsigned("0"), 0u);
  EXPECT_EQ(parse_unsigned("42"), 42u);
  EXPECT_EQ(parse_unsigned("18446744073709551615"), 18446744073709551615ull);
  for (const char* bad : {"", "-1", "+5", " 5", "5 ", "0x10", "1e3", "12a",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_unsigned(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_unsigned("65535", 65535), 65535u);
  EXPECT_FALSE(parse_unsigned("65536", 65535).has_value());
}

// state::parse_u64 and read_u64s take no sign: a checkpoint's "steps -1"
// or a frame's "adam -1" must fail to load instead of reading as 2^64 - 1.
TEST(StateIo, ParseU64RejectsASign) {
  EXPECT_THROW((void)state::parse_u64("-1", "steps"), std::runtime_error);
  EXPECT_THROW((void)state::parse_u64("+5", "steps"), std::runtime_error);
  EXPECT_THROW((void)state::parse_u64(" 5", "steps"), std::runtime_error);
  EXPECT_EQ(state::parse_u64("5", "steps"), 5u);
  for (const char* bad : {"dominant 2 -1 3\n", "dominant -1\n", "dominant +1 3\n"}) {
    std::istringstream in(bad);
    EXPECT_THROW((void)state::read_u64s(in, "dominant"), std::runtime_error) << bad;
  }
  std::istringstream good("dominant 2 0 18446744073709551615\n");
  EXPECT_EQ(state::read_u64s(good, "dominant"),
            (std::vector<std::uint64_t>{0, 18446744073709551615ull}));
}

}  // namespace
}  // namespace glova
