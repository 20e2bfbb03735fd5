#pragma once

/// \file thread_pool.h
/// Persistent worker pool shared by every parallel code path in the library.
///
/// The seed implementation spawned fresh threads on every gemm() call and
/// every PTT branch pair — the CPU analog of per-op stream setup. This pool
/// is created once and reused, so a parallel region costs a queue push
/// instead of a thread spawn.
///
/// Design notes:
///  - parallel_for is *work-sharing*: the calling thread claims chunks from
///    the same atomic cursor the workers do, and while waiting for stragglers
///    it drains the shared queue. A nested parallel_for issued from inside a
///    worker task therefore completes inline even when every worker is busy —
///    the pool cannot deadlock on itself.
///  - Exceptions thrown by the body are captured; the first one is rethrown
///    on the calling thread after the region completes, and the remaining
///    chunks of that region are abandoned.

#include <cstdint>
#include <functional>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace ttsnn {

class ThreadPool {
 public:
  /// Creates `threads` persistent workers. Zero is valid: every parallel_for
  /// then runs entirely on the calling thread.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of persistent workers (excluding the calling thread, which also
  /// executes chunks during parallel_for).
  int workers() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(begin, end) over a partition of [0, n), blocking until every
  /// iteration has finished. `grain` is the chunk size handed out per claim;
  /// 0 picks one aimed at a few chunks per participant. Safe to call from
  /// inside a task running on this pool.
  void parallel_for(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
                    int64_t grain = 0);

  /// Enqueues a standalone fire-and-forget task (the DataLoader producer
  /// pattern). Submitted tasks live in their own queue that only idle
  /// workers drain — a thread blocked in parallel_for runs helper chunks,
  /// never a whole submitted task, so batch-granularity background work
  /// cannot sneak into a compute region's critical path. Requires at least
  /// one worker: with none, nothing would ever execute the task, so the
  /// caller must run its work synchronously instead. Completion signalling
  /// is the task's own business; the pool destructor drains both queues
  /// before joining, so a submitted task never silently disappears.
  void submit(std::function<void()> task);

  /// Process-wide pool, created on first use and sized from
  /// TTSNN_POOL_THREADS if set, else hardware_concurrency() - 1 (the calling
  /// thread supplies the remaining lane).
  static ThreadPool& instance();

 private:
  struct Region;  // shared state of one parallel_for call

  void worker_loop();
  /// Pops and runs one parallel_for helper chunk; returns false if that
  /// queue was empty. Deliberately never touches submitted_: this is the
  /// work a blocked parallel_for caller may steal, and stealing a whole
  /// submitted task there would serialize it into the compute path.
  bool run_one_task();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;      ///< parallel_for helpers
  std::deque<std::function<void()>> submitted_;  ///< standalone submit() tasks
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// How a loop over `samples` independent samples (the folded T·N batch of a
/// convolution or of an exact TT op) spreads over the process-wide pool. The
/// pool offers lanes = workers() + 1 (the calling thread takes chunks too).
/// The loop fans out only when every lane gets at least two samples
/// (samples >= 2 * lanes): in chunks of grain = ceil(samples / lanes), chunk
/// `begin / grain` owning lane slot `begin / grain`. Below that, waking idle
/// workers costs more than the samples, so they run serially on the caller
/// in a single slot (a batch-1 eval forward, T·N = 4, stays serial on a
/// 4-lane pool). Input-derived, not a setting: the inference planner, its
/// executor and the training convolutions all call this, so a workspace
/// charge and the carve that fills it agree.
struct SampleLanes {
  int64_t grain = 1;  ///< samples per chunk (one chunk per slot)
  int64_t slots = 1;  ///< lane slots to carve: ceil(samples / grain)
};
SampleLanes sample_lanes(int64_t samples);

/// parallel_for on the process-wide pool (ThreadPool::instance()).
void parallel_for(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
                  int64_t grain = 0);

/// Runs two independent thunks concurrently on the process-wide pool and
/// blocks until both finish (the PTT strip-branch pattern).
void parallel_invoke(const std::function<void()>& fa,
                     const std::function<void()>& fb);

}  // namespace ttsnn
