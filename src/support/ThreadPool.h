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
/// Results and exceptions travel through std::future, which is what the
/// parallel grid runner relies on to propagate a failing run to the
/// caller.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_SUPPORT_THREADPOOL_H
#define AOCI_SUPPORT_THREADPOOL_H

#include <cassert>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
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

  /// Index (0-based) of the pool worker executing the current thread, or
  /// ~0u when called from a thread that is not a pool worker.
  static unsigned currentWorkerId();

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
