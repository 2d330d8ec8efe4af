#ifndef IQLKIT_BASE_THREAD_POOL_H_
#define IQLKIT_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iqlkit {

// A thread-safe FIFO task pool: `workers` persistent threads pull queued
// closures and run each to completion. Post may be called from any thread
// at any time, which is what the concurrent-query scheduler needs to
// multiplex many independent (serial) evaluations over one set of
// threads. There is no result channel: tasks communicate through their own
// captures.
//
// Destruction drains: tasks already queued still run, then workers join.
// Posting after destruction has begun is a caller bug.
class TaskPool {
 public:
  explicit TaskPool(size_t workers);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  size_t workers() const { return workers_; }

  // Enqueues `task` for the next free worker. Never blocks; admission
  // control (bounding the backlog) is the caller's policy, not the pool's.
  void Post(std::function<void()> task);

  // Blocks until the queue is empty and every worker is idle. Note tasks
  // posted concurrently with Drain may or may not be covered.
  void Drain();

 private:
  void WorkerLoop();

  size_t workers_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  size_t running_ = 0;  // tasks currently executing
  bool shutdown_ = false;
};

}  // namespace iqlkit

#endif  // IQLKIT_BASE_THREAD_POOL_H_
