#include "engine/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "util/require.hpp"

namespace gq {

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads != 0
                   ? threads
                   : std::max(1u, std::thread::hardware_concurrency())),
      telemetry_pool_(threads_) {
  workers_.reserve(threads_ - 1);
  for (unsigned i = 1; i < threads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_raw(std::size_t num_tasks, RawTask task, void* ctx) {
  if (num_tasks == 0) return;
  if (workers_.empty() || num_tasks == 1) {
    // Single-threaded pools, and one-task batches at any thread count,
    // execute inline: waking a worker for a lone task buys no parallelism,
    // only a publish, a notify and a wait on done_cv_ (and, when the worker
    // claims the task first, a caller asleep while it runs).  A throwing
    // task propagates directly, exactly like the sequential loop it
    // replaces.  The whole batch is one "chunk" of worker 0 for utilization
    // purposes.
    const std::uint64_t t0 =
        telemetry::enabled() ? telemetry::now_ns() : 0;
    for (std::size_t i = 0; i < num_tasks; ++i) task(ctx, i);
    if (t0 != 0) {
      telemetry::WorkerCounters& c = telemetry_pool_.counters()[0];
      c.busy_ns.fetch_add(telemetry::now_ns() - t0,
                          std::memory_order_relaxed);
      c.chunks.fetch_add(1, std::memory_order_relaxed);
      c.batches.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  GQ_REQUIRE(num_tasks < (std::uint64_t{1} << kIndexBits),
             "batch too large for the packed claim word");

  // Chunk so each thread claims ~4 chunks per batch: coarse enough that the
  // claim word is touched O(threads) times, fine enough that an uneven task
  // mix still load-balances across the pool.
  const std::size_t chunk =
      std::max<std::size_t>(1, num_tasks / (std::size_t{threads_} * 4));
  std::uint64_t generation;
  {
    std::lock_guard lock(mutex_);
    generation = ++generation_;
    batch_ = Batch{task, ctx, num_tasks, chunk, generation};
    completed_.store(0, std::memory_order_relaxed);
    batch_error_ = nullptr;
    // Opening the claim word for this epoch retires every stale claim
    // attempt at once: a worker still holding last batch's descriptor can
    // no longer pass the epoch check, so nothing waits on worker exits.
    claim_.store(pack(generation, 0), std::memory_order_release);
  }
  work_cv_.notify_all();

  drain(batch_, 0);  // the calling thread participates in its own batch

  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] {
      return completed_.load(std::memory_order_acquire) == num_tasks;
    });
    error = std::exchange(batch_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::drain(const Batch& batch, unsigned worker) {
  const std::uint64_t epoch_tag = pack(batch.generation, 0);
  std::uint64_t cur = claim_.load(std::memory_order_relaxed);
  // Per-drain telemetry accumulators: counters are touched once per drain,
  // not once per chunk, so the enabled cost stays off the claim hot path.
  const bool telemetry_on = telemetry::enabled();
  std::uint64_t busy_ns = 0;
  std::uint64_t chunks_claimed = 0;
  for (;;) {
    // One claim per chunk.  The epoch tag fences stale drainers: if a new
    // batch has been published, the tag mismatch ends this drain before it
    // can touch the new batch's indices.  (A false match would need the
    // 32-bit epoch to wrap all the way around within one compare-exchange
    // attempt — billions of run() calls while this thread sits between two
    // instructions — which we accept the way seqlocks accept ABA.)
    if ((cur & ~kIndexMask) != epoch_tag) break;
    const std::size_t begin = static_cast<std::size_t>(cur & kIndexMask);
    if (begin >= batch.num_tasks) break;
    const std::size_t end = std::min(begin + batch.chunk, batch.num_tasks);
    if (!claim_.compare_exchange_weak(cur, pack(batch.generation, end),
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
      continue;  // lost the race; cur was reloaded
    }
    const std::uint64_t t0 = telemetry_on ? telemetry::now_ns() : 0;
    for (std::size_t i = begin; i < end; ++i) {
      try {
        batch.task(batch.ctx, i);
      } catch (...) {
        // A throwing task must not kill a worker thread or break the
        // barrier; remember the first exception for run() to rethrow and
        // keep draining.
        std::lock_guard lock(mutex_);
        if (!batch_error_) batch_error_ = std::current_exception();
      }
    }
    if (telemetry_on) {
      busy_ns += telemetry::now_ns() - t0;
      ++chunks_claimed;
    }
    const std::size_t done = end - begin;
    if (completed_.fetch_add(done, std::memory_order_acq_rel) + done ==
        batch.num_tasks) {
      // Final chunk of the batch: one wakeup for the caller.  The empty
      // critical section serializes with the caller's predicate check so
      // the notify cannot slip between its check and its sleep.
      { std::lock_guard lock(mutex_); }
      done_cv_.notify_one();
      break;
    }
    cur = claim_.load(std::memory_order_relaxed);
  }
  if (chunks_claimed != 0) {
    telemetry::WorkerCounters& c = telemetry_pool_.counters()[worker];
    c.busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
    c.chunks.fetch_add(chunks_claimed, std::memory_order_relaxed);
    c.batches.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::worker_loop(unsigned worker) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Batch batch;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock,
                    [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      batch = batch_;  // copied under the lock: never torn
    }
    drain(batch, worker);
  }
}

}  // namespace gq
