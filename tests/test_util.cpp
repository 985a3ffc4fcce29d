#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "telemetry/metrics.hpp"
#include "util/check.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace insta::util {
namespace {

TEST(Check, ThrowsWithLocation) {
  EXPECT_NO_THROW(check(true, "fine"));
  try {
    check(false, "boom");
    FAIL() << "check(false) must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"), std::string::npos);
  }
}

TEST(Stats, PearsonPerfectAndAnti) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, PearsonKnownValue) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {1, 3, 2, 4};
  // Hand-computed: cov = 1.0, var_x = var_y = 1.25 -> r = 1.0/1.25 = 0.8.
  EXPECT_NEAR(pearson(xs, ys), 0.8, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  const std::vector<double> xs = {3, 3, 3};
  EXPECT_EQ(pearson(xs, xs), 1.0);
  const std::vector<double> ys = {1, 2, 3};
  EXPECT_EQ(pearson(xs, ys), 0.0);
  EXPECT_EQ(pearson({}, {}), 0.0);
}

TEST(Stats, Mismatch) {
  const std::vector<double> ref = {1, 2, 3};
  const std::vector<double> test = {1.5, 2, 1};
  const MismatchStats mm = mismatch(ref, test);
  EXPECT_NEAR(mm.avg_abs, (0.5 + 0 + 2) / 3.0, 1e-12);
  EXPECT_EQ(mm.max_abs, 2.0);
  EXPECT_EQ(mm.max_index, 2u);
  EXPECT_NEAR(mm.rmse, std::sqrt((0.25 + 0 + 4) / 3.0), 1e-12);
}

TEST(Stats, Summary) {
  const std::vector<double> xs = {2, 4, 6, 8};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.min, 2);
  EXPECT_EQ(s.max, 8);
  EXPECT_EQ(s.mean, 5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0), 1e-12);
}

TEST(Stats, RSquaredIdentity) {
  const std::vector<double> xs = {1, 2, 3};
  EXPECT_EQ(r_squared_identity(xs, xs), 1.0);
  const std::vector<double> ys = {1.1, 2.0, 2.9};
  EXPECT_GT(r_squared_identity(xs, ys), 0.97);
}

TEST(Stats, FormatCorrelation) {
  EXPECT_EQ(format_correlation(0.999943), "0.99994");
  EXPECT_EQ(format_correlation(1.0), "1.00000");
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    // Different seeds diverge almost surely.
  }
  EXPECT_NE(a(), c());
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); }, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksSum) {
  ThreadPool pool(3);
  std::atomic<long long> total{0};
  pool.parallel_for_chunks(1, 1001, [&](std::size_t lo, std::size_t hi) {
    long long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += static_cast<long long>(i);
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 500500);  // [1, 1001) covers 1..1000 inclusive
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(2);
  int runs = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  std::atomic<int> small{0};
  pool.parallel_for(0, 3, [&](std::size_t) { small.fetch_add(1); });
  EXPECT_EQ(small.load(), 3);
}

TEST(ThreadPool, PropagatesFirstExceptionFromWorkers) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  // Large range + small grain forces the enqueued (worker-thread) path; the
  // exception must resurface on the calling thread, not std::terminate.
  EXPECT_THROW(
      pool.parallel_for(
          0, 10000,
          [&](std::size_t i) {
            ran.fetch_add(1);
            if (i % 1000 == 17) throw std::runtime_error("task failed");
          },
          16),
      std::runtime_error);
  EXPECT_GT(ran.load(), 0);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for_chunks(
                   0, 5000,
                   [](std::size_t, std::size_t) {
                     throw CheckError("chunk failed");
                   },
                   8),
               CheckError);
  // The pool must survive the failed launch and run later work normally.
  std::atomic<int> hits{0};
  pool.parallel_for(0, 2000, [&](std::size_t) { hits.fetch_add(1); }, 16);
  EXPECT_EQ(hits.load(), 2000);
}

TEST(ThreadPool, ExceptionOnInlinePath) {
  // Ranges at or below the grain run inline on the caller; exceptions take
  // the ordinary path there too.
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   0, 4, [](std::size_t) { throw CheckError("inline"); }, 256),
               CheckError);
}

TEST(ThreadPool, NestedLaunchesRunInline) {
  // A launch from inside a chunk cannot claim the (already claimed) ticket
  // slot; it must fall back to inline execution instead of deadlocking, and
  // every index must still be covered exactly once.
  ThreadPool pool(4);
  std::atomic<long long> total{0};
  pool.parallel_for_chunks(
      0, 2048,
      [&](std::size_t lo, std::size_t hi) {
        pool.parallel_for(
            lo, hi,
            [&](std::size_t i) {
              total.fetch_add(static_cast<long long>(i),
                              std::memory_order_relaxed);
            },
            1);
      },
      64);
  EXPECT_EQ(total.load(), 2048LL * 2047 / 2);
}

TEST(ThreadPool, ConcurrentLaunchesFromExternalThreads) {
  // Racing launchers: one wins the claim and uses the pool, the rest run
  // inline. All must complete with full coverage.
  ThreadPool pool(4);
  constexpr int kThreads = 4;
  constexpr int kReps = 50;
  constexpr std::size_t kN = 4096;
  std::array<std::atomic<long long>, kThreads> counts{};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kReps; ++rep) {
        pool.parallel_for(
            0, kN,
            [&](std::size_t) {
              counts[static_cast<std::size_t>(t)].fetch_add(
                  1, std::memory_order_relaxed);
            },
            16);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), static_cast<long long>(kReps) * kN);
  }
}

TEST(ThreadPool, StatsCountWorkAndPublishToRegistry) {
  ThreadPool pool(3);
  std::vector<double> out(20000);
  // Grain 16 over 20000 indices splits into the maximum 4 x (3 + 1) chunks,
  // so the workers pull tickets alongside the caller.
  pool.parallel_for(
      0, out.size(),
      [&](std::size_t i) { out[i] = std::sqrt(static_cast<double>(i)); }, 16);
  const ThreadPool::PoolStats s = pool.stats();
  EXPECT_EQ(s.workers, 3u);
  EXPECT_GT(s.tasks_queued, 0u);
  EXPECT_GT(s.tasks_executed, 0u);
  EXPECT_GT(s.busy_sec + s.idle_sec, 0.0);

  pool.publish_metrics();
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::global().snapshot();
  ASSERT_TRUE(snap.gauges.contains("pool.workers"));
  ASSERT_TRUE(snap.gauges.contains("pool.utilization_pct"));
  EXPECT_EQ(snap.gauges.at("pool.workers"), 3.0);
  const double util_pct = snap.gauges.at("pool.utilization_pct");
  EXPECT_GE(util_pct, 0.0);
  EXPECT_LE(util_pct, 100.0);
}

TEST(ThreadPool, ManyRepeatedSmallLaunches) {
  // Back-to-back launches stress the epoch handshake (worker wake, join,
  // drain, re-park) without ever tearing the shared launch fields.
  ThreadPool pool(3);
  std::atomic<std::uint64_t> total{0};
  for (int rep = 0; rep < 2000; ++rep) {
    pool.parallel_for_chunks(
        0, 600,
        [&](std::size_t lo, std::size_t hi) {
          total.fetch_add(hi - lo, std::memory_order_relaxed);
        },
        1);
  }
  EXPECT_EQ(total.load(), 2000ull * 600ull);
}

TEST(ThreadPool, ExceptionFromEveryChunkRethrowsOnce) {
  // With a single worker the caller executes a share of the chunks itself;
  // a throw from a caller-executed chunk must follow the same capture-and-
  // rethrow path as a worker throw.
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for_chunks(
                   0, 1000,
                   [](std::size_t, std::size_t) {
                     throw CheckError("chunk boom");
                   },
                   1),
               CheckError);
  std::atomic<int> hits{0};
  pool.parallel_for(0, 100, [&](std::size_t) { hits.fetch_add(1); }, 1);
  EXPECT_EQ(hits.load(), 100);
}

TEST(CheckMacros, InstaCheckEvaluatesOnce) {
  int evals = 0;
  INSTA_CHECK(++evals > 0, "must pass");
  EXPECT_EQ(evals, 1);
  EXPECT_THROW(INSTA_CHECK(evals == 99, "nope"), CheckError);
}

TEST(CheckMacros, InstaCheckMessageHasLocation) {
  try {
    INSTA_CHECK(false, "macro boom");
    FAIL() << "INSTA_CHECK(false) must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("macro boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"), std::string::npos);
  }
}

TEST(CheckMacros, InstaDcheckSideEffectFree) {
  int evals = 0;
#ifdef NDEBUG
  // Compiled out: the condition must not be evaluated at all.
  INSTA_DCHECK(++evals > 0, "unused");
  INSTA_DCHECK(false, "never throws in release");
  EXPECT_EQ(evals, 0);
#else
  // Debug: behaves exactly like INSTA_CHECK (single evaluation, throws).
  INSTA_DCHECK(++evals > 0, "must pass");
  EXPECT_EQ(evals, 1);
  EXPECT_THROW(INSTA_DCHECK(false, "throws in debug"), CheckError);
#endif
}

TEST(Table, RendersAlignedRows) {
  Table t({"a", "long-header"});
  t.add_row({"xx", "1"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| a  | long-header |"), std::string::npos);
  EXPECT_NE(s.find("| xx | 1           |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Memory, RssIsPositiveAndOrdered) {
  EXPECT_GT(current_rss_bytes(), 0u);
  EXPECT_GE(peak_rss_bytes(), current_rss_bytes() / 2);
  EXPECT_NEAR(to_gib(1ull << 30), 1.0, 1e-12);
}

}  // namespace
}  // namespace insta::util
