// pool.hpp — thread pool for embarrassingly parallel campaigns.
//
// The simulation kernel is single-threaded by design (sim/simulator.hpp), so
// parallelism lives one level up: each (scenario, seed) cell owns a private
// Simulator and the pool runs many cells concurrently. Every worker serves
// one shared task queue under one lock, newest task first (warm caches for
// a task that submits more work).
//
// Determinism contract: the pool never influences results. Tasks must not
// share mutable state except through their own slot of a pre-sized output
// vector; result *merging* is the caller's job and must happen in task-id
// order (see runner/sweep.hpp), never in completion order.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slp::runner {

class Pool {
 public:
  /// Spawns `workers` threads (clamped to >= 1). `workers == 0` picks the
  /// hardware concurrency.
  explicit Pool(int workers = 0);

  /// Drains outstanding tasks, then joins. Pending exceptions are swallowed
  /// here (destructors must not throw) — call drain() first to observe them.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Enqueues one task. Thread-safe; may be called from worker threads.
  void submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished, then rethrows the first
  /// exception any task raised (remaining tasks still run to completion).
  /// The pool is reusable after drain().
  void drain();

  [[nodiscard]] int workers() const { return static_cast<int>(threads_.size()); }

 private:
  void run_worker();

  std::mutex mutex_;
  std::deque<std::function<void()>> tasks_;  // newest at the front
  std::condition_variable work_cv_;          // workers wait here for tasks
  std::condition_variable drain_cv_;         // drain() waits here for quiescence
  std::uint64_t pending_ = 0;                // submitted, not yet finished
  std::exception_ptr first_error_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;  // last: the workers use every member above
};

}  // namespace slp::runner
