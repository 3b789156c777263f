//===- support/ThreadPool.cpp - Fixed-size FIFO thread pool ----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace aoci;

namespace {
/// The pool whose worker the current thread is, and its index there.
thread_local const ThreadPool *CurrentPool = nullptr;
thread_local unsigned CurrentIndex = 0;
} // namespace

unsigned ThreadPool::workersFor(unsigned Jobs, size_t Tasks) {
  if (Jobs == 0)
    Jobs = std::max(std::thread::hardware_concurrency(), 1u);
  return static_cast<unsigned>(
      std::min<size_t>(Jobs, std::max<size_t>(Tasks, 1)) - 1);
}

unsigned ThreadPool::executor() const {
  return CurrentPool == this ? CurrentIndex + 1 : 0;
}

ThreadPool::ThreadPool(unsigned Threads) {
  Workers.reserve(Threads);
  for (unsigned I = 0; I != Threads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  Ready.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
  // Workers drain the queue before they exit; a pool without any leaves
  // it to this thread.
  drain();
}

std::function<void()> ThreadPool::pop() {
  std::function<void()> Task;
  if (!Queue.empty()) {
    Task = std::move(Queue.front());
    Queue.pop_front();
  }
  return Task;
}

void ThreadPool::drain() {
  for (;;) {
    std::function<void()> Task;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Task = pop();
    }
    if (!Task)
      return;
    Task(); // packaged_task captures any exception in the future.
  }
}

void ThreadPool::workerLoop(unsigned Index) {
  CurrentPool = this;
  CurrentIndex = Index;
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Ready.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      Task = pop();
    }
    if (!Task)
      return; // Stopping and drained.
    Task(); // packaged_task captures any exception in the future.
  }
}
