#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "util/common.h"

namespace ttsnn {

/// Shared state of one parallel_for call. Heap-allocated and owned jointly by
/// the caller and the helper tasks. Note `fn` is a raw pointer into the
/// caller's frame: parallel_for must keep blocking until pending hits zero —
/// a variant that returns early would leave helpers dereferencing a dead
/// std::function even though the Region itself stays alive.
struct ThreadPool::Region {
  std::atomic<int64_t> next{0};    ///< first unclaimed iteration
  int64_t n = 0;
  int64_t grain = 1;
  const std::function<void(int64_t, int64_t)>* fn = nullptr;
  std::atomic<int> pending{0};     ///< helper tasks not yet finished
  std::mutex err_mu;
  std::exception_ptr error;

  /// Claims chunks until the cursor passes n, running fn on each.
  void drain() {
    for (;;) {
      const int64_t begin = next.fetch_add(grain);
      if (begin >= n) return;
      const int64_t end = std::min(n, begin + grain);
      try {
        (*fn)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!error) error = std::current_exception();
        next.store(n);  // abandon the rest of this region
      }
    }
  }
};

ThreadPool::ThreadPool(int threads) {
  TTSNN_CHECK(threads >= 0, "ThreadPool size must be >= 0");
  threads_.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stop_ || !queue_.empty() || !submitted_.empty();
      });
      if (stop_ && queue_.empty() && submitted_.empty()) return;
      // Helper chunks first: they unblock a caller already inside a compute
      // region, while submitted tasks are latency-tolerant background work.
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
      } else {
        task = std::move(submitted_.front());
        submitted_.pop_front();
      }
    }
    task();
  }
}

bool ThreadPool::run_one_task() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::parallel_for(int64_t n,
                              const std::function<void(int64_t, int64_t)>& fn,
                              int64_t grain) {
  if (n <= 0) return;
  const int nworkers = workers();
  if (grain <= 0) {
    // A few chunks per participant so a slow chunk doesn't serialize the tail.
    grain = std::max<int64_t>(1, n / (4 * (nworkers + 1)));
  }
  const int64_t chunks = (n + grain - 1) / grain;
  if (nworkers == 0 || chunks <= 1) {
    fn(0, n);
    return;
  }

  auto region = std::make_shared<Region>();
  region->n = n;
  region->grain = grain;
  region->fn = &fn;

  // One helper per worker, but never more helpers than leftover chunks (the
  // caller itself takes chunks too).
  const int helpers =
      static_cast<int>(std::min<int64_t>(nworkers, chunks - 1));
  region->pending.store(helpers);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int h = 0; h < helpers; ++h) {
      queue_.emplace_back([this, region] {
        region->drain();
        {
          // Decrement under the pool mutex: a caller checks pending while
          // holding it, so this cannot slip between its check and its wait.
          std::lock_guard<std::mutex> lock(mu_);
          region->pending.fetch_sub(1);
        }
        cv_.notify_all();  // wake a caller blocked in the wait below
      });
    }
  }
  cv_.notify_all();

  region->drain();

  // Wait for helpers — but keep doing useful work. Draining the shared queue
  // here is what makes nested parallel_for calls deadlock-free: our helper
  // tasks are *somewhere* in that queue, so running queued tasks inline
  // guarantees forward progress even if every worker is wedged on its own
  // region.
  while (region->pending.load() > 0) {
    if (!run_one_task()) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this, &region] {
        return region->pending.load() == 0 || !queue_.empty();
      });
    }
  }

  if (region->error) std::rethrow_exception(region->error);
}

void ThreadPool::submit(std::function<void()> task) {
  TTSNN_CHECK(workers() > 0,
              "ThreadPool::submit requires at least one worker thread");
  TTSNN_CHECK(task != nullptr, "ThreadPool::submit of an empty task");
  {
    std::lock_guard<std::mutex> lock(mu_);
    submitted_.emplace_back(std::move(task));
  }
  // notify_all, not notify_one: the single wake could land on a caller
  // blocked in parallel_for (whose predicate ignores submitted_), which
  // would re-sleep and strand the task until an unrelated notify.
  cv_.notify_all();
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("TTSNN_POOL_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      // Only honor a fully numeric value; "auto" or a typo must not silently
      // disable the pool (strtol returns 0 with no conversion).
      if (end != env && *end == '\0' && v >= 0) {
        return static_cast<int>(std::min<long>(v, 256));
      }
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 1 ? static_cast<int>(hc - 1) : 0;
  }());
  return pool;
}

SampleLanes sample_lanes(int64_t samples) {
  const int64_t lanes = ThreadPool::instance().workers() + 1;
  if (samples < 2 * lanes) return {.grain = std::max<int64_t>(samples, 1)};
  const int64_t grain = (samples + lanes - 1) / lanes;
  return {.grain = grain, .slots = (samples + grain - 1) / grain};
}

void parallel_for(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
                  int64_t grain) {
  ThreadPool::instance().parallel_for(n, fn, grain);
}

void parallel_invoke(const std::function<void()>& fa,
                     const std::function<void()>& fb) {
  parallel_for(
      2, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) (i == 0 ? fa : fb)();
      },
      /*grain=*/1);
}

}  // namespace ttsnn
