//===- support/ThreadPool.h - Fixed-size FIFO thread pool -------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool with a single FIFO queue and no work
/// stealing: tasks are dequeued strictly in submission order, so a pool
/// of one thread executes exactly the serial schedule. A caller may
/// drain() the queue itself, as one more executor; a pool of no workers
/// then runs every task on the draining thread, in submission order.
/// runIndexed() is the one way the harness uses it: the grid's runs, each
/// serve round's slices and the claims studies' legs are N indexed tasks
/// on the workers plus the calling thread.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_SUPPORT_THREADPOOL_H
#define AOCI_SUPPORT_THREADPOOL_H

#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace aoci {

/// Fixed-size FIFO thread pool. The destructor drains the queue: every
/// task submitted before destruction runs to completion.
class ThreadPool {
public:
  /// Spawns \p Threads workers. With none, tasks run only on a thread
  /// that drains the queue (drain() or the destructor).
  explicit ThreadPool(unsigned Threads);

  /// Waits for all submitted tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// The worker count that, with the calling thread, makes \p Jobs
  /// executors (0 = one per hardware thread), but no more workers than
  /// \p Tasks - 1: the caller takes a task too.
  static unsigned workersFor(unsigned Jobs, size_t Tasks = SIZE_MAX);

  /// Submits a nullary callable; returns the future of its result. A
  /// task that throws stores the exception in the future instead.
  template <typename Fn>
  auto submit(Fn &&F) -> std::future<decltype(F())> {
    using Result = decltype(F());
    auto Task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(F));
    std::future<Result> Out = Task->get_future();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      assert(!Stopping && "submit() after the destructor started");
      Queue.emplace_back([Task] { (*Task)(); });
    }
    Ready.notify_one();
    return Out;
  }

  /// Runs queued tasks on the calling thread until the queue is empty,
  /// taking them in submission order alongside the workers. Returns
  /// without waiting for tasks that workers are still running.
  void drain();

  /// Runs \p Task(0) .. Task(N - 1) on the workers and on the calling
  /// thread, which drains the queue, and returns their results in index
  /// order (nothing for a void Task). Every task finishes before this
  /// returns or throws; when tasks throw, the lowest index's exception is
  /// rethrown.
  template <typename Fn> auto runIndexed(size_t N, Fn Task) {
    using Result = decltype(Task(size_t()));
    std::vector<std::future<Result>> Futures;
    Futures.reserve(N);
    for (size_t I = 0; I != N; ++I)
      Futures.push_back(submit([&Task, I] { return Task(I); }));
    drain();
    for (std::future<Result> &F : Futures)
      F.wait();
    if constexpr (std::is_void_v<Result>) {
      for (std::future<Result> &F : Futures)
        F.get();
    } else {
      std::vector<Result> Out;
      Out.reserve(N);
      for (std::future<Result> &F : Futures)
        Out.push_back(F.get());
      return Out;
    }
  }

  /// The executor running the calling thread: 1 + its index among this
  /// pool's workers, or 0 on any other thread (the caller that drains).
  unsigned executor() const;

private:
  void workerLoop(unsigned Index);
  /// Pops the oldest task, or an empty function when the queue is empty.
  /// The caller holds Mutex.
  std::function<void()> pop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable Ready;
  bool Stopping = false;
};

} // namespace aoci

#endif // AOCI_SUPPORT_THREADPOOL_H
