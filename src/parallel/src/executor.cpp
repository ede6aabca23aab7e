#include "mlm/parallel/executor.h"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <type_traits>

#include "mlm/fault/fault.h"
#include "mlm/support/cache_line.h"
#include "mlm/support/error.h"

namespace mlm {

namespace {

// Same name-keyed site as ThreadPool's / DeterministicExecutor's
// (mlm/fault/fault.h shares plan counters by name), so one armed
// parallel.task.run trigger covers per-task submits and batched slices
// alike.
fault::FaultSite& task_fault_site() {
  static fault::FaultSite site(fault::sites::kTaskRun);
  return site;
}

// Shared state of one submit_slices batch: the single allocation and
// the single promise all slices report to.  Self-deleting — the slice
// that drops `remaining` to zero settles the promise and frees the
// state, so the batch outlives any early caller.  A slice counts once,
// whether it ran or its executor abandoned it unrun, so the state is
// freed even when an executor is destroyed with slices still queued.
// The fault-site check runs inside run()'s try, so an injected failure
// is recorded like any slice exception and can never strand the batch
// future.
struct BatchState {
  std::promise<void> promise;
  std::function<void(std::size_t)> body;
  std::mutex mu;
  std::exception_ptr first_error;
  // Every slice on every worker decrements this; every slice also
  // *reads* `body`.  On its own cache line so the decrement traffic
  // doesn't invalidate the line the read-mostly members live on.
  alignas(kCacheLineBytes) std::atomic<std::size_t> remaining;

  BatchState(std::size_t count, std::function<void(std::size_t)> b)
      : body(std::move(b)), remaining(count) {}

  void run(std::size_t index) {
    try {
      task_fault_site().maybe_throw();
      body(index);
    } catch (...) {
      record(std::current_exception());
    }
    finish_one();
  }

  void abandon() {
    record(std::make_exception_ptr(
        std::future_error(std::future_errc::broken_promise)));
    finish_one();
  }

  void record(std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mu);
    if (!first_error) first_error = std::move(error);
  }

  void finish_one() {
    // acq_rel: the final decrement observes every slice's error write.
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (first_error) {
        promise.set_exception(first_error);
      } else {
        promise.set_value();
      }
      delete this;
    }
  }
};

// The queued form of one slice.  16 bytes and trivially copyable, so
// std::function stores it in place (no per-slice allocation), and a
// named type, so abandon() can recognise it.
struct BatchSlice {
  BatchState* state;
  std::size_t index;

  void operator()() const { state->run(index); }
};
static_assert(std::is_trivially_copyable_v<BatchSlice> &&
                  sizeof(BatchSlice) <= 16,
              "libstdc++ std::function stores only trivially copyable "
              "callables of at most 16 bytes in place");

}  // namespace

void Executor::abandon(std::function<void()>& task) {
  if (BatchSlice* slice = task.target<BatchSlice>()) {
    slice->state->abandon();
    task = nullptr;
  }
}

std::future<void> Executor::submit_slices(
    std::size_t count, std::function<void(std::size_t)> body) {
  MLM_REQUIRE(body != nullptr, "cannot submit a null slice body");
  auto* state = new BatchState(count, std::move(body));
  std::future<void> fut = state->promise.get_future();
  if (count == 0) {
    state->promise.set_value();
    delete state;
    return fut;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tasks.emplace_back(BatchSlice{state, i});
  }
  post_bulk(std::move(tasks));
  return fut;
}

}  // namespace mlm
