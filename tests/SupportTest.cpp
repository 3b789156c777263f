//===- tests/SupportTest.cpp - Unit tests for src/support ------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "support/Histogram.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

using namespace aoci;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng A(42), B(42);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Differences = 0;
  for (int I = 0; I != 100; ++I)
    if (A.next() != B.next())
      ++Differences;
  EXPECT_GT(Differences, 90);
}

TEST(RngTest, ZeroSeedIsRemapped) {
  Rng A(0);
  // Must not be stuck at zero.
  EXPECT_NE(A.next() | A.next() | A.next(), 0u);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I != 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(RngTest, NextBelowCoversSmallRange) {
  Rng R(99);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 200; ++I)
    Seen.insert(R.nextBelow(4));
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(5);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(11);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng R(13);
  int True50 = 0;
  for (int I = 0; I != 10000; ++I)
    True50 += R.nextBool(0.5);
  EXPECT_NEAR(True50, 5000, 300);

  int TrueAlways = 0, TrueNever = 0;
  for (int I = 0; I != 100; ++I) {
    TrueAlways += R.nextBool(1.0);
    TrueNever += R.nextBool(0.0);
  }
  EXPECT_EQ(TrueAlways, 100);
  EXPECT_EQ(TrueNever, 0);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng R(17);
  uint64_t First = R.next();
  R.next();
  R.reseed(17);
  EXPECT_EQ(R.next(), First);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, ArithmeticMean) {
  EXPECT_DOUBLE_EQ(arithmeticMean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(arithmeticMean({}), 0);
}

TEST(StatisticsTest, GeometricMean) {
  EXPECT_NEAR(geometricMean({1, 4}), 2.0, 1e-12);
  EXPECT_NEAR(geometricMean({2, 2, 2}), 2.0, 1e-12);
}

TEST(StatisticsTest, HarmonicMean) {
  EXPECT_NEAR(harmonicMean({1, 1, 1}), 1.0, 1e-12);
  // Classic: harmonic mean of 2 and 6 is 3.
  EXPECT_NEAR(harmonicMean({2, 6}), 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(harmonicMean({}), 0);
}

TEST(StatisticsTest, MeanOrderingInequality) {
  std::vector<double> V = {1, 2, 3, 9, 27};
  EXPECT_LE(harmonicMean(V), geometricMean(V) + 1e-12);
  EXPECT_LE(geometricMean(V), arithmeticMean(V) + 1e-12);
}

TEST(StatisticsTest, HarmonicMeanOfPercentagesIdentity) {
  EXPECT_NEAR(harmonicMeanOfPercentages({5.0, 5.0, 5.0}), 5.0, 1e-9);
  EXPECT_NEAR(harmonicMeanOfPercentages({0.0, 0.0}), 0.0, 1e-9);
}

TEST(StatisticsTest, PercentChange) {
  EXPECT_DOUBLE_EQ(percentChange(100, 110), 10.0);
  EXPECT_DOUBLE_EQ(percentChange(100, 90), -10.0);
  EXPECT_DOUBLE_EQ(percentChange(0, 5), 0.0);
}

TEST(StatisticsTest, SpeedupPercent) {
  // Candidate twice as fast: +100%.
  EXPECT_DOUBLE_EQ(speedupPercent(200, 100), 100.0);
  // Candidate slower: negative.
  EXPECT_LT(speedupPercent(100, 200), 0.0);
}

TEST(StatisticsTest, RunningStat) {
  RunningStat S;
  EXPECT_EQ(S.count(), 0u);
  S.add(3);
  S.add(-1);
  S.add(10);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.min(), -1);
  EXPECT_DOUBLE_EQ(S.max(), 10);
  EXPECT_DOUBLE_EQ(S.mean(), 4);
  EXPECT_DOUBLE_EQ(S.sum(), 12);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, CountsAndTotal) {
  Histogram H;
  H.add(0);
  H.add(2, 3);
  H.add(2);
  EXPECT_EQ(H.count(0), 1u);
  EXPECT_EQ(H.count(1), 0u);
  EXPECT_EQ(H.count(2), 4u);
  EXPECT_EQ(H.count(99), 0u);
  EXPECT_EQ(H.total(), 5u);
  EXPECT_EQ(H.numBuckets(), 3u);
}

TEST(HistogramTest, CumulativeFraction) {
  Histogram H;
  H.add(1, 2);
  H.add(5, 2);
  EXPECT_DOUBLE_EQ(H.cumulativeFractionAtOrBelow(0), 0.0);
  EXPECT_DOUBLE_EQ(H.cumulativeFractionAtOrBelow(1), 0.5);
  EXPECT_DOUBLE_EQ(H.cumulativeFractionAtOrBelow(4), 0.5);
  EXPECT_DOUBLE_EQ(H.cumulativeFractionAtOrBelow(5), 1.0);
  EXPECT_DOUBLE_EQ(H.fractionAt(5), 0.5);
}

TEST(HistogramTest, EmptyAndClear) {
  Histogram H;
  EXPECT_DOUBLE_EQ(H.cumulativeFractionAtOrBelow(10), 0.0);
  H.add(3);
  H.clear();
  EXPECT_EQ(H.total(), 0u);
  EXPECT_EQ(H.count(3), 0u);
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, FormatString) {
  EXPECT_EQ(formatString("x=%d y=%s", 5, "ok"), "x=5 y=ok");
  EXPECT_EQ(formatString("%s", ""), "");
  // Long output forces the allocation path.
  std::string Long = formatString("%0500d", 7);
  EXPECT_EQ(Long.size(), 500u);
}

TEST(StringUtilsTest, FormatPercent) {
  EXPECT_EQ(formatPercent(5.25), "+5.2%");
  EXPECT_EQ(formatPercent(-4.2), "-4.2%");
  EXPECT_EQ(formatPercent(0), "+0.0%");
}

TEST(StringUtilsTest, RenderTableAlignsColumns) {
  std::string Out = renderTable({"name", "v"}, {{"a", "1"}, {"long", "22"}});
  // Header, rule, two rows.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 4);
  EXPECT_NE(Out.find("long"), std::string::npos);
  EXPECT_NE(Out.find("22"), std::string::npos);
}

TEST(StringUtilsTest, StrictNumberParsers) {
  uint64_t U = 7;
  EXPECT_TRUE(parseUnsigned("18446744073709551615", UINT64_MAX, U));
  EXPECT_EQ(U, UINT64_MAX);
  for (const char *Bad : {"", " 1", "1 ", "+1", "-1", "1x", "0x10",
                          "18446744073709551616", "11"})
    EXPECT_FALSE(parseUnsigned(Bad, 10, U)) << Bad;
  EXPECT_EQ(U, UINT64_MAX) << "a rejected value leaves the output alone";
  unsigned Narrow = 0;
  EXPECT_TRUE(parseUnsigned("4294967295", Narrow));
  EXPECT_FALSE(parseUnsigned("4294967296", Narrow));

  double D = 0;
  EXPECT_TRUE(parseFinite("-2.5e3", D));
  EXPECT_EQ(D, -2500.0);
  for (const char *Bad : {"", " 1", "1 ", "1x", "nan", "inf", "-inf",
                          "1e999", "."})
    EXPECT_FALSE(parseFinite(Bad, D)) << Bad;
  EXPECT_EQ(D, -2500.0);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, ResultsArriveThroughFuturesInSubmissionSlots) {
  ThreadPool Pool(4);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I != 64; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  // Each future is bound to its task regardless of which worker ran it
  // or in what order the tasks finished.
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(Futures[static_cast<size_t>(I)].get(), I * I);
}

TEST(ThreadPoolTest, SingleThreadDegeneratesToSerialFifoOrder) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  std::vector<int> Executed;
  std::vector<std::future<void>> Futures;
  for (int I = 0; I != 100; ++I)
    // No lock around Executed: with one worker the tasks run strictly
    // one after another in submission order, which is the property
    // under test (TSan would flag it otherwise).
    Futures.push_back(Pool.submit([&Executed, I] { Executed.push_back(I); }));
  for (std::future<void> &F : Futures)
    F.get();
  std::vector<int> Expected(100);
  std::iota(Expected.begin(), Expected.end(), 0);
  EXPECT_EQ(Executed, Expected);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool Pool(2);
  std::future<int> Ok = Pool.submit([] { return 7; });
  std::future<int> Bad =
      Pool.submit([]() -> int { throw std::runtime_error("run failed"); });
  EXPECT_EQ(Ok.get(), 7);
  EXPECT_THROW(
      {
        try {
          Bad.get();
        } catch (const std::runtime_error &E) {
          EXPECT_STREQ(E.what(), "run failed");
          throw;
        }
      },
      std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(Pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, WorkerIdsCoverThePoolAndOnlyThePool) {
  ThreadPool Pool(3), Other(1);
  EXPECT_EQ(Pool.executor(), 0u) << "the caller is executor 0";
  std::vector<std::future<unsigned>> Futures;
  for (int I = 0; I != 60; ++I)
    Futures.push_back(Pool.submit([&Pool] { return Pool.executor(); }));
  for (std::future<unsigned> &F : Futures) {
    const unsigned Executor = F.get();
    EXPECT_GE(Executor, 1u);
    EXPECT_LE(Executor, 3u);
  }
  // A worker of another pool is not one of this pool's workers.
  EXPECT_EQ(Other.submit([&Pool] { return Pool.executor(); }).get(), 0u);
}

TEST(ThreadPoolTest, WorkersForCountsTheCallerAndNeverExceedsTheTasks) {
  EXPECT_EQ(ThreadPool::workersFor(1), 0u);
  EXPECT_EQ(ThreadPool::workersFor(4), 3u);
  EXPECT_EQ(ThreadPool::workersFor(4, 2), 1u);
  EXPECT_EQ(ThreadPool::workersFor(4, 1), 0u);
  EXPECT_EQ(ThreadPool::workersFor(4, 0), 0u);
  EXPECT_EQ(ThreadPool::workersFor(0),
            std::max(std::thread::hardware_concurrency(), 1u) - 1);
}

TEST(ThreadPoolTest, RunIndexedReturnsResultsInIndexOrder) {
  ThreadPool Pool(3);
  const std::vector<size_t> Squares =
      Pool.runIndexed(200, [](size_t I) { return I * I; });
  ASSERT_EQ(Squares.size(), 200u);
  for (size_t I = 0; I != Squares.size(); ++I)
    EXPECT_EQ(Squares[I], I * I);
  EXPECT_TRUE(Pool.runIndexed(0, [](size_t I) { return I; }).empty());
}

TEST(ThreadPoolTest, RunIndexedRethrowsTheLowestFailureOnceEveryTaskFinished) {
  ThreadPool Pool(3);
  constexpr size_t N = 40;
  std::atomic<size_t> Finished{0};
  auto Task = [&Finished](size_t I) {
    // The last task is slow, so it is still running when the throwing
    // ones are done.
    if (I == N - 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Finished.fetch_add(1);
    if (I == 3 || I == 7 || I == N - 1)
      throw std::runtime_error("task " + std::to_string(I));
  };
  EXPECT_THROW(
      {
        try {
          Pool.runIndexed(N, Task);
        } catch (const std::runtime_error &E) {
          EXPECT_STREQ(E.what(), "task 3");
          EXPECT_EQ(Finished.load(), N);
          throw;
        }
      },
      std::runtime_error);
}

TEST(ThreadPoolTest, RunIndexedWithoutWorkersRunsEverythingOnTheCaller) {
  ThreadPool Pool(0);
  std::vector<size_t> Order;
  const std::vector<std::thread::id> Threads =
      Pool.runIndexed(50, [&](size_t I) {
        // No lock: with no workers the caller runs the tasks one after
        // another (TSan would flag it otherwise).
        Order.push_back(I);
        EXPECT_EQ(Pool.executor(), 0u);
        return std::this_thread::get_id();
      });
  std::vector<size_t> Expected(50);
  std::iota(Expected.begin(), Expected.end(), 0);
  EXPECT_EQ(Order, Expected);
  for (std::thread::id Id : Threads)
    EXPECT_EQ(Id, std::this_thread::get_id());
}

TEST(ThreadPoolTest, StressThousandTasks) {
  // 1000 tasks over 8 workers, each bumping an atomic and summing into
  // its own future. Run under TSan in CI.
  ThreadPool Pool(8);
  std::atomic<uint64_t> Bumps{0};
  std::vector<std::future<uint64_t>> Futures;
  Futures.reserve(1000);
  for (uint64_t I = 0; I != 1000; ++I)
    Futures.push_back(Pool.submit([&Bumps, I] {
      Bumps.fetch_add(1, std::memory_order_relaxed);
      uint64_t Sum = 0;
      for (uint64_t J = 0; J <= I; ++J)
        Sum += J;
      return Sum;
    }));
  uint64_t Total = 0;
  for (uint64_t I = 0; I != 1000; ++I) {
    uint64_t Expected = I * (I + 1) / 2;
    uint64_t Got = Futures[I].get();
    EXPECT_EQ(Got, Expected);
    Total += Got;
  }
  EXPECT_EQ(Bumps.load(), 1000u);
  EXPECT_GT(Total, 0u);
}

TEST(ThreadPoolTest, NoWorkersRunEveryTaskOnTheDrainingCallerInOrder) {
  // Serve's driver thread is one of its executors: with one job the pool
  // has no workers, and the driver runs each round's slices itself.
  std::vector<int> Executed;
  std::future<int> Bad;
  {
    ThreadPool Pool(0);
    EXPECT_EQ(Pool.numThreads(), 0u);
    std::vector<std::future<std::thread::id>> Futures;
    for (int I = 0; I != 50; ++I)
      Futures.push_back(Pool.submit([&Executed, I] {
        Executed.push_back(I);
        return std::this_thread::get_id();
      }));
    Bad = Pool.submit(
        []() -> int { throw std::runtime_error("slice failed"); });
    EXPECT_TRUE(Executed.empty()) << "nothing runs before a drain";
    Pool.drain();
    std::vector<int> Expected(50);
    std::iota(Expected.begin(), Expected.end(), 0);
    EXPECT_EQ(Executed, Expected);
    for (std::future<std::thread::id> &F : Futures)
      EXPECT_EQ(F.get(), std::this_thread::get_id());
    // A task submitted after the drain runs when the pool is destroyed.
    Pool.submit([&Executed] { Executed.push_back(50); });
  }
  EXPECT_EQ(Executed.size(), 51u);
  EXPECT_THROW(
      {
        try {
          Bad.get();
        } catch (const std::runtime_error &E) {
          EXPECT_STREQ(E.what(), "slice failed");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 200; ++I)
      Pool.submit([&Ran] { Ran.fetch_add(1); });
    // No explicit wait: destruction must run every submitted task.
  }
  EXPECT_EQ(Ran.load(), 200);
}
