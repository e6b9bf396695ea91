// Fixed-size thread pool and the one parallel executor built on it.
//
// Deliberately small: a FIFO of std::function jobs and N worker
// threads.  Pools are cheap enough to create per parallel operation
// (thread spawn is microseconds next to parsing a multi-megabyte
// trace), which keeps thread ownership obvious and avoids global
// executor state.  Two executors run on it.  parallel_for_stealing
// runs a known set of items — pid shards, directory files, snapshot
// loads and merge levels.  parallel_stream runs items as the caller
// produces them, with a bounded number in flight — the blocks of a text
// trace, parsed while the caller reads the next.
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

/// Longest-processing-time placement of weighted items on `lanes` lanes
/// (at least one): items are taken heaviest first, ties in index
/// order, each onto the least-loaded lane so far, ties to the lowest
/// lane; a zero weight counts as 1.  Returns each item's lane.  The
/// result depends only on the weights, and with at least `lanes` items
/// no lane is left empty.  parallel_for_stealing deals its items this
/// way; the parallel ingest routes place pids by row count with it.
std::vector<unsigned> lpt_place(const std::vector<std::uint64_t>& weights,
                                unsigned lanes);

/// Runs fn(0), ..., fn(n-1) for n = weights.size() on the pool and
/// blocks until all complete.  Items are dealt by lpt_place onto one
/// deque per worker lane, heaviest first; each lane drains its own
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

/// Runs a stream of jobs on a pool of `n_threads` workers made for
/// this call (0 = hardware concurrency).  The calling thread calls
/// `produce()` for the next job until it returns an empty function; each
/// job runs on a worker as soon as one is free, in production order.
/// At most `max_in_flight` jobs (at least 1) are produced and not yet
/// finished: produce() is not called again until one finishes, so a
/// producer that holds one buffer per job needs at most that many.
/// Every produced job runs exactly once.  The first exception — from a
/// job, or from produce(), which ends the stream — is rethrown after
/// every produced job has finished.  One thread makes no pool: each job
/// runs on the calling thread right after it is produced.
void parallel_stream(unsigned n_threads, std::size_t max_in_flight,
                     const std::function<std::function<void()>()>& produce);

}  // namespace iocov::exec
