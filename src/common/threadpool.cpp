#include "common/threadpool.h"

#include <sched.h>

namespace ceems::common {
namespace {

// Moves the calling worker once onto the index-th CPU it may run on, then
// gives it back its whole CPU set. A new thread starts on its creator's
// CPU and a woken one is placed near where it last ran, so without this
// every worker of a pool can stay on one CPU for seconds while the others
// idle (seen on a 4-vCPU KVM guest: a pool's stage took twice its time,
// with process CPU time equal to wall time). After one move the scheduler
// keeps each worker on its own CPU; it stays free to migrate it.
void start_on_own_cpu(std::size_t index) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  int skip = static_cast<int>(index % static_cast<std::size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      sched_setaffinity(0, sizeof(allowed), &allowed);
    }
    return;
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, std::string name)
    : name_(std::move(name)) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] {
      start_on_own_cpu(i);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() { shutdown(/*drain=*/false); }

bool ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    if (!accepting_) return false;
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
  return true;
}

void ThreadPool::run_all(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining;
    std::exception_ptr error;
  };
  auto sync = std::make_shared<Sync>();
  sync->remaining = tasks.size();
  for (auto& task : tasks) {
    auto wrapped = [sync, task = std::move(task)]() mutable {
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard lock(sync->mu);
      if (error && !sync->error) sync->error = error;
      if (--sync->remaining == 0) sync->cv.notify_all();
    };
    if (!submit(wrapped)) wrapped();  // shutting down: run inline
  }
  std::unique_lock lock(sync->mu);
  sync->cv.wait(lock, [&] { return sync->remaining == 0; });
  if (sync->error) std::rethrow_exception(sync->error);
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::shutdown(bool drain) {
  {
    std::lock_guard lock(mu_);
    accepting_ = false;
    if (!drain) queue_.clear();
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

std::size_t ThreadPool::pending() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace ceems::common
