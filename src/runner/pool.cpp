#include "runner/pool.hpp"

#include <utility>

namespace slp::runner {

Pool::Pool(int workers) {
  if (workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : static_cast<int>(hw);
  }
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) threads_.emplace_back([this] { run_worker(); });
}

Pool::~Pool() {
  {
    std::unique_lock lock{mutex_};
    drain_cv_.wait(lock, [this] { return pending_ == 0; });
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Pool::submit(std::function<void()> fn) {
  {
    std::lock_guard lock{mutex_};
    tasks_.push_front(std::move(fn));
    ++pending_;
  }
  work_cv_.notify_one();
}

void Pool::drain() {
  std::unique_lock lock{mutex_};
  drain_cv_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void Pool::run_worker() {
  std::unique_lock lock{mutex_};
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
    if (tasks_.empty()) return;  // shut down, and drained before that
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    try {
      task();
    } catch (...) {
      lock.lock();
      if (!first_error_) first_error_ = std::current_exception();
      lock.unlock();
    }
    task = nullptr;  // destroy captures outside the lock
    lock.lock();
    if (--pending_ == 0) drain_cv_.notify_all();
  }
}

}  // namespace slp::runner
