// Fixed-size thread pool and the one parallel executor built on it.
//
// Deliberately small: a FIFO of std::function jobs and N worker
// threads.  Pools are cheap enough to create per parallel operation
// (thread spawn is microseconds next to parsing a multi-megabyte
// trace), which keeps thread ownership obvious and avoids global
// executor state.  Every parallel stage of the library — trace chunks,
// pid shards, directory files, snapshot loads and merge levels — runs
// through parallel_for_stealing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iocov::exec {

class ThreadPool {
  public:
    /// Spawns `n_threads` workers (at least one).
    explicit ThreadPool(unsigned n_threads = default_thread_count());
    /// Runs every queued job, then joins the workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueues a job; runs on some worker in FIFO order.
    void submit(std::function<void()> job);

    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /// hardware_concurrency(), floored at 1 (the standard allows 0).
    static unsigned default_thread_count();

  private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable work_cv_;  // workers wait for jobs / stop
    bool stop_ = false;
};

/// Runs fn(0), ..., fn(n-1) for n = weights.size() on the pool and
/// blocks until all complete.  Items are dealt longest-processing-
/// time-first onto one deque per worker lane; each lane drains its own
/// deque from the front and, when empty, steals from the back of the
/// most-loaded lane, so one huge item (say, a trace file scheduled by
/// byte count) cannot serialize the tail of the run.  Equal weights
/// deal items round-robin.  Every item is attempted exactly once; the
/// first exception is rethrown after all items finish, and the pool
/// stays usable.  Items are coarse, so a single mutex over the deques
/// is plenty — this is scheduling policy, not a lock-free queue
/// exercise.
void parallel_for_stealing(ThreadPool& pool,
                           const std::vector<std::uint64_t>& weights,
                           const std::function<void(std::size_t)>& fn);

/// The same on a pool of min(n_threads, items) lanes made for this
/// call (`n_threads` 0 = hardware concurrency).  One lane is a plain
/// loop on the calling thread, with the same exactly-once and
/// rethrow-after-all contract.
void parallel_for_stealing(unsigned n_threads,
                           const std::vector<std::uint64_t>& weights,
                           const std::function<void(std::size_t)>& fn);

}  // namespace iocov::exec
