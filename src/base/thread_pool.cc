#include "base/thread_pool.h"

#include <algorithm>

namespace iqlkit {

TaskPool::TaskPool(size_t workers) : workers_(std::max<size_t>(workers, 1)) {
  threads_.reserve(workers_);
  for (size_t i = 0; i < workers_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TaskPool::Post(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void TaskPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

void TaskPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace iqlkit
