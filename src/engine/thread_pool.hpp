// A fixed pool of worker threads executing indexed task batches.
//
// ThreadPool::run(num_tasks, fn) calls fn(i) exactly once for every
// i in [0, num_tasks), distributing indices over the workers plus the
// calling thread, and returns only when all calls have completed (a full
// barrier).  Which thread executes which index is unspecified — callers
// must make fn(i) independent of execution order; the engine guarantees
// this by deriving all randomness from counter-based streams and giving
// every task its own output slots.
//
// The dispatch path is contention-free and allocation-free: indices are
// claimed in chunks with one atomic claim per chunk (no per-index
// locking), completion is an atomic counter whose final increment triggers
// the single end-of-batch wakeup, and the callable travels as a raw
// function pointer plus context pointer — no std::function is constructed,
// so a round's dispatch performs zero heap allocations.  The claim word
// packs {epoch, next index} so a worker that slept through the end of a
// batch is fenced out by the epoch check instead of being waited for —
// run() returns the moment the last task completes, never blocking on
// late-waking workers.  The pool mutex is touched only at batch boundaries
// (publish, worker wake) and on the exceptional path.
//
// The pool is created once and reused for every round, so the per-round
// dispatch cost is two condition-variable hops, not thread creation.  With
// one thread the pool spawns no workers and run() executes inline, making
// the single-threaded engine an ordinary sequential loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace gq {

class ThreadPool {
 public:
  // The type-erased task shape: fn(ctx, i) runs task index i.
  using RawTask = void (*)(void* ctx, std::size_t index);

  // `threads` >= 1 is the total parallelism including the calling thread;
  // 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  // Executes task(i) for every i in [0, num_tasks); returns after all
  // complete.  Not reentrant: run() must not be called from within a task.
  // If a task throws, the batch still drains (remaining indices may or may
  // not run), the pool stays usable, and the first exception is rethrown
  // from run() on the calling thread — matching the sequential path's
  // propagation semantics.  The callable is borrowed for the duration of
  // the call, never copied — no allocation happens on this path.
  template <typename F>
  void run(std::size_t num_tasks, F&& task) {
    using Fn = std::remove_reference_t<F>;
    run_raw(num_tasks,
            [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); },
            const_cast<void*>(
                static_cast<const void*>(std::addressof(task))));
  }

  // The non-templated core run() wraps.
  void run_raw(std::size_t num_tasks, RawTask task, void* ctx);

 private:
  // The published batch descriptor.  Written under mutex_ by run_raw;
  // workers copy it under mutex_ when they wake, so a worker can never
  // observe a torn descriptor even if it sleeps through a whole batch.
  struct Batch {
    RawTask task = nullptr;
    void* ctx = nullptr;
    std::size_t num_tasks = 0;
    std::size_t chunk = 1;
    std::uint64_t generation = 0;
  };

  // The claim word: low bits are the next unclaimed index, high bits the
  // batch epoch (generation mod 2^32).  A drainer claims a chunk with one
  // compare-exchange that only succeeds while the epoch still matches its
  // descriptor, which is what lets run() ignore stale workers entirely.
  static constexpr unsigned kIndexBits = 32;
  static constexpr std::uint64_t kIndexMask =
      (std::uint64_t{1} << kIndexBits) - 1;
  [[nodiscard]] static constexpr std::uint64_t pack(
      std::uint64_t generation, std::size_t index) noexcept {
    return (generation << kIndexBits) | index;
  }

  void worker_loop(unsigned worker);
  void drain(const Batch& batch, unsigned worker);

  unsigned threads_;
  std::vector<std::thread> workers_;

  // Worker telemetry: per-worker busy-ns / chunks-claimed counters,
  // registered with gq::telemetry so exporters can report utilization and
  // imbalance.  Worker 0 is the calling thread; spawned workers are 1..
  // threads-1 (matching the pinning order).  The counters are only written
  // when telemetry::enabled() — the disabled cost per chunk is one relaxed
  // load and a branch — and the whole member compiles to nothing when
  // telemetry is compiled out.
  telemetry::RegisteredPool telemetry_pool_;

  // Lock-free hot path: chunk claims and completions.
  std::atomic<std::uint64_t> claim_{0};    // packed {epoch, next index}
  std::atomic<std::size_t> completed_{0};  // finished task count

  // Batch-boundary coordination only.
  std::mutex mutex_;
  std::condition_variable work_cv_;   // wakes workers for a new batch
  std::condition_variable done_cv_;   // wakes run() at end of batch
  Batch batch_;
  std::uint64_t generation_ = 0;      // batch sequence number
  std::exception_ptr batch_error_;    // first exception thrown by a task
  bool stop_ = false;
};

}  // namespace gq
