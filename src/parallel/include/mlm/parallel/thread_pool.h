// Fixed-size worker thread pool.
//
// The paper's buffered chunking scheme (Section 3) partitions the KNL's
// hardware threads into three dedicated pools — copy-in, compute,
// copy-out — because KNL has no user-programmable DMA engine and all data
// movement between DDR and MCDRAM must be performed by CPU threads.
// ThreadPool is the building block for those pools: a named, fixed-size
// pool with a FIFO task queue, bulk submission, and a blocking barrier.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mlm/parallel/affinity.h"
#include "mlm/parallel/executor.h"
#include "mlm/support/error.h"

namespace mlm {

/// Fixed-size FIFO thread pool — the real-threads Executor.
///
/// Threads are created in the constructor and joined in the destructor.
/// Tasks thrown exceptions are captured and rethrown from wait_idle() /
/// the returned future, never swallowed.
class ThreadPool : public Executor {
 public:
  /// Creates `num_threads` workers (must be >= 1).  `name` labels the pool
  /// in diagnostics ("copy-in", "compute", ...).
  explicit ThreadPool(std::size_t num_threads, std::string name = "pool");

  /// As above, pinning worker i to `plan.worker_cpus[i]` (see
  /// mlm/machine/topology.h).  Pinning is best-effort: failures are
  /// counted in affinity_outcome(), never thrown.  Pins are applied
  /// before the constructor returns, so the outcome is stable.
  ThreadPool(std::size_t num_threads, std::string name,
             const AffinityPlan& plan);

  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const override { return threads_.size(); }
  const std::string& name() const override { return name_; }

  /// Enqueue a task; returns a future for its completion/exception.
  std::future<void> submit(std::function<void()> task) override;

  /// Enqueue a task without a future (slightly cheaper); exceptions are
  /// stored and rethrown by the next wait_idle().
  void post(std::function<void()> task) override;

  /// Enqueue pre-wrapped non-throwing tasks under one lock acquisition
  /// and one wakeup broadcast (the submit_slices fast path; see
  /// Executor::post_bulk for the contract).
  void post_bulk(std::vector<std::function<void()>> tasks) override;

  /// Block until the queue is empty and all workers are idle.  Rethrows
  /// the first exception captured from a post()ed task, if any.
  void wait_idle() override;

  /// Block on every future (the workers make progress on their own),
  /// rethrowing the first captured exception.
  void wait(std::vector<std::future<void>>& futures) override;

  /// Number of tasks executed since construction (for tests/diagnostics);
  /// a task counts from the moment a worker takes it off the queue.
  std::size_t tasks_executed() const override;

  /// How the construction-time pin plan went (all zeros for the
  /// plan-less constructor).  Immutable after construction.
  const AffinityOutcome& affinity_outcome() const { return affinity_; }

 private:
  void worker_loop();
  /// Raw queue push shared by post()/submit().  The public entry points
  /// wrap tasks with the parallel.task.run fault site *inside* their
  /// respective error paths (worker capture vs. promise), so an injected
  /// failure can never strand a future.
  void enqueue(std::function<void()> task);

  std::string name_;
  std::vector<std::thread> threads_;
  AffinityOutcome affinity_;

  mutable std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  std::size_t executed_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace mlm
