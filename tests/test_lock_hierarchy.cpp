// Lock-hierarchy validator and annotated-wrapper behavior tests.
//
// Two layers under test:
//  * analysis/lock_hierarchy — the debug-build rank validator: acquiring
//    out of rank order, re-entrantly, or upgrading shared->exclusive must
//    abort with a diagnostic (death tests, compiled only when
//    INSTA_LOCK_CHECK is on).
//  * util/mutex wrappers — must add no behavioral change over the raw
//    std:: primitives. The multi-threaded tests here mirror the serve
//    layer's RCU snapshot-publish and reader/writer disciplines and are run
//    under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/lock_hierarchy.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace insta {
namespace {

using util::CondVar;
using util::LockGuard;
using util::Mutex;
using util::SharedLock;
using util::SharedMutex;
using util::UniqueLock;
using util::WriteLock;

#if INSTA_LOCK_CHECK_ENABLED

class LockHierarchyDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Worker threads (the global pool) may exist; fork-per-death-test keeps
    // the child single-threaded enough to abort deterministically.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(LockHierarchyDeathTest, OutOfOrderAcquisitionAborts) {
  Mutex outer("test.outer", 10);
  Mutex inner("test.inner", 20);
  EXPECT_DEATH(
      {
        const LockGuard lo(outer);  // rank 10
        const LockGuard li(inner);  // rank 20 >= 10: must abort
      },
      "lock-hierarchy violation");
}

TEST_F(LockHierarchyDeathTest, EqualRankAcquisitionAborts) {
  // Strict descent: equal ranks are an ordering violation too (two locks of
  // the same rank could otherwise be taken in either order by two threads).
  Mutex a("test.a", 10);
  Mutex b("test.b", 10);
  EXPECT_DEATH(
      {
        const LockGuard la(a);
        const LockGuard lb(b);
      },
      "lock-hierarchy violation");
}

TEST_F(LockHierarchyDeathTest, ReentrantAcquisitionAborts) {
  Mutex mu("test.reentrant", 10);
  EXPECT_DEATH(
      {
        const LockGuard l1(mu);
        const LockGuard l2(mu);  // self-deadlock on std::mutex
      },
      "re-entrant acquisition");
}

TEST_F(LockHierarchyDeathTest, SharedReentrantAcquisitionAborts) {
  // shared_mutex does not guarantee recursive shared locking either (a
  // writer waiting between the two acquisitions deadlocks both).
  SharedMutex mu("test.shared_reentrant", 10);
  EXPECT_DEATH(
      {
        const SharedLock l1(mu);
        const SharedLock l2(mu);
      },
      "re-entrant acquisition");
}

TEST_F(LockHierarchyDeathTest, SharedToExclusiveUpgradeAborts) {
  SharedMutex mu("test.upgrade", 10);
  EXPECT_DEATH(
      {
        const SharedLock reader(mu);
        const WriteLock writer(mu);  // upgrade: guaranteed self-deadlock
      },
      "shared->exclusive upgrade");
}

TEST(LockHierarchyTest, DescendingAcquisitionIsAccepted) {
  Mutex outer("test.outer", 20);
  Mutex inner("test.inner", 10);
  SharedMutex mid("test.mid", 15);
  ASSERT_EQ(analysis::lock_check_held_count(), 0U);
  {
    const LockGuard lo(outer);
    EXPECT_EQ(analysis::lock_check_held_count(), 1U);
    const SharedLock lm(mid);
    EXPECT_EQ(analysis::lock_check_held_count(), 2U);
    const LockGuard li(inner);
    EXPECT_EQ(analysis::lock_check_held_count(), 3U);
  }
  EXPECT_EQ(analysis::lock_check_held_count(), 0U);
}

TEST(LockHierarchyTest, ExclusiveThenSharedReleaseTracksBoth) {
  SharedMutex mu("test.rw", 10);
  {
    const WriteLock w(mu);
    EXPECT_EQ(analysis::lock_check_held_count(), 1U);
  }
  {
    const SharedLock r(mu);
    EXPECT_EQ(analysis::lock_check_held_count(), 1U);
  }
  EXPECT_EQ(analysis::lock_check_held_count(), 0U);
}

#else  // !INSTA_LOCK_CHECK_ENABLED

TEST(LockHierarchyTest, ValidatorDisabledInThisBuild) {
  // The stubs must compile away: no held-lock tracking at all.
  Mutex mu("test.stub", 10);
  const LockGuard l(mu);
  EXPECT_EQ(analysis::lock_check_held_count(), 0U);
  GTEST_SKIP() << "INSTA_LOCK_CHECK is OFF; death tests not built";
}

#endif  // INSTA_LOCK_CHECK_ENABLED

// ---- wrapper behavior (always on; exercised under TSan in CI) --------------

TEST(MutexWrapperTest, TryLockSemantics) {
  Mutex mu("test.trylock", 10);
  ASSERT_TRUE(mu.try_lock());
  std::atomic<bool> other_failed{false};
  std::thread t([&] { other_failed.store(!mu.try_lock()); });
  t.join();
  EXPECT_TRUE(other_failed.load());
  mu.unlock();
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

/// Mirrors serve::TimingService's RCU discipline: a writer republishes an
/// immutable snapshot through a micro-mutex-guarded shared_ptr swap while
/// readers copy the pointer and read the pointee lock-free. Versions must
/// be observed monotonically and every payload must match its version.
TEST(MutexWrapperTest, RcuStylePublishCopyIsRaceFree) {
  struct Snapshot {
    std::uint64_t version = 0;
    /// version * 3 + 1; checked by readers. The default snapshot must
    /// satisfy it too: a reader can copy it before the first publish.
    std::uint64_t payload = 1;
  };
  Mutex snap_mu("test.snap", 10);
  std::shared_ptr<const Snapshot> snap INSTA_GUARDED_BY(snap_mu) =
      std::make_shared<Snapshot>();

  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr std::uint64_t kPublishes = 2000;
  std::atomic<std::uint64_t> next_version{1};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (;;) {
        const std::uint64_t v = next_version.fetch_add(1);
        if (v > kPublishes) return;
        auto fresh = std::make_shared<Snapshot>();
        fresh->version = v;
        fresh->payload = v * 3 + 1;
        const LockGuard sl(snap_mu);
        if (snap->version < v) snap = std::move(fresh);
      }
    });
  }
  std::atomic<bool> ok{true};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      std::uint64_t last_seen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const Snapshot> s;
        {
          const LockGuard sl(snap_mu);
          s = snap;
        }
        if (s->payload != s->version * 3 + 1 || s->version < last_seen) {
          ok.store(false);
          return;
        }
        last_seen = s->version;
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  EXPECT_TRUE(ok.load());
}

/// Writers keep (a, b) moving in lockstep under the exclusive lock; readers
/// under the shared lock must never observe a half-updated pair.
TEST(MutexWrapperTest, SharedMutexReadersSeeConsistentPairs) {
  SharedMutex mu("test.pair", 10);
  std::uint64_t a INSTA_GUARDED_BY(mu) = 0;
  std::uint64_t b INSTA_GUARDED_BY(mu) = 0;
  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};

  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 5000; ++i) {
      const WriteLock w(mu);
      a = i;
      b = i;
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const SharedLock s(mu);
        if (a != b) {
          ok.store(false);
          return;
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(ok.load());
}

/// UniqueLock + CondVar ping-pong, including a manual unlock()/lock() round
/// trip — the exact shape of the serve micro-batcher's leader/waiter dance.
TEST(MutexWrapperTest, CondVarPingPong) {
  Mutex mu("test.pingpong", 10);
  CondVar cv;
  int turn INSTA_GUARDED_BY(mu) = 0;  // 0 = main's turn, 1 = helper's turn
  constexpr int kRounds = 200;
  int helper_runs = 0;

  std::thread helper([&] {
    for (int i = 0; i < kRounds; ++i) {
      UniqueLock lk(mu);
      while (turn != 1) cv.wait(lk);
      ++helper_runs;  // benign: only written with turn == 1 held by us
      turn = 0;
      lk.unlock();
      cv.notify_all();
      lk.lock();  // manual re-lock exercises the validator bookkeeping
      EXPECT_TRUE(lk.owns_lock());
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    {
      UniqueLock lk(mu);
      while (turn != 0) cv.wait(lk);
      turn = 1;
    }
    cv.notify_all();
  }
  {
    // Drain: wait until the helper has yielded its last turn back.
    UniqueLock lk(mu);
    while (turn != 0) cv.wait(lk);
  }
  helper.join();
  EXPECT_EQ(helper_runs, kRounds);
}

/// Nested ranked acquisition across many threads, shaped like the real
/// stack: serve-state (60) -> telemetry-registry (30) -> log (20).
TEST(MutexWrapperTest, NestedRankedAcquisitionUnderContention) {
  Mutex state("test.state", util::lockrank::kServeState);
  Mutex registry("test.registry", util::lockrank::kTelemetryRegistry);
  Mutex log("test.log", util::lockrank::kLog);
  std::uint64_t counter INSTA_GUARDED_BY(log) = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 500;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        const LockGuard ls(state);
        const LockGuard lr(registry);
        const LockGuard ll(log);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const LockGuard ll(log);
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace insta
