#include "exec/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

namespace iocov::exec {

unsigned ThreadPool::default_thread_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned n_threads) {
    if (n_threads == 0) n_threads = 1;
    workers_.reserve(n_threads);
    for (unsigned i = 0; i < n_threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(job));
    }
    work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stop_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job();
    }
}

void parallel_for_stealing(ThreadPool& pool,
                           const std::vector<std::uint64_t>& weights,
                           const std::function<void(std::size_t)>& fn) {
    const std::size_t n = weights.size();
    if (n == 0) return;

    // Shared, not stack-referenced, so the lane jobs own what they
    // touch; the caller still blocks until every lane has finished.
    struct Shared {
        std::mutex mu;
        std::condition_variable done;
        std::size_t running = 0;  // lanes not yet finished
        std::vector<std::deque<std::size_t>> lane_items;
        std::vector<std::uint64_t> lane_load;  // queued (unstarted) weight
        std::vector<std::uint64_t> item_weight;
        std::exception_ptr first_error;
    };
    auto shared = std::make_shared<Shared>();
    const std::size_t lanes =
        std::min<std::size_t>(pool.size() ? pool.size() : 1, n);
    shared->running = lanes;
    shared->lane_items.resize(lanes);
    shared->lane_load.assign(lanes, 0);
    shared->item_weight.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        shared->item_weight[i] = weights[i] ? weights[i] : 1;

    // LPT deal: heaviest item first onto the lightest lane.  Stable
    // (ties keep index order) so the schedule is deterministic.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return shared->item_weight[a] >
                                shared->item_weight[b];
                     });
    for (const std::size_t item : order) {
        std::size_t lane = 0;
        for (std::size_t l = 1; l < lanes; ++l)
            if (shared->lane_load[l] < shared->lane_load[lane]) lane = l;
        shared->lane_items[lane].push_back(item);
        shared->lane_load[lane] += shared->item_weight[item];
    }

    auto run_lane = [shared, &fn](std::size_t lane) {
        for (;;) {
            std::size_t item;
            {
                std::lock_guard<std::mutex> lock(shared->mu);
                auto& own = shared->lane_items[lane];
                if (!own.empty()) {
                    item = own.front();
                    own.pop_front();
                    shared->lane_load[lane] -= shared->item_weight[item];
                } else {
                    // Steal from the back of the most-loaded lane.
                    std::size_t victim = lane;
                    for (std::size_t l = 0; l < shared->lane_items.size();
                         ++l) {
                        if (shared->lane_items[l].empty()) continue;
                        if (victim == lane ||
                            shared->lane_load[l] > shared->lane_load[victim])
                            victim = l;
                    }
                    if (victim == lane) break;  // everything claimed
                    auto& q = shared->lane_items[victim];
                    item = q.back();
                    q.pop_back();
                    shared->lane_load[victim] -= shared->item_weight[item];
                }
            }
            try {
                fn(item);
            } catch (...) {
                std::lock_guard<std::mutex> lock(shared->mu);
                if (!shared->first_error)
                    shared->first_error = std::current_exception();
            }
        }
        std::lock_guard<std::mutex> lock(shared->mu);
        if (--shared->running == 0) shared->done.notify_all();
    };
    for (std::size_t lane = 0; lane < lanes; ++lane)
        pool.submit([run_lane, lane] { run_lane(lane); });

    std::unique_lock<std::mutex> lock(shared->mu);
    shared->done.wait(lock, [&] { return shared->running == 0; });
    if (shared->first_error) std::rethrow_exception(shared->first_error);
}

void parallel_for_stealing(unsigned n_threads,
                           const std::vector<std::uint64_t>& weights,
                           const std::function<void(std::size_t)>& fn) {
    if (n_threads == 0) n_threads = ThreadPool::default_thread_count();
    if (n_threads > 1 && weights.size() > 1) {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(n_threads, weights.size())));
        parallel_for_stealing(pool, weights, fn);
        return;
    }
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        try {
            fn(i);
        } catch (...) {
            if (!first_error) first_error = std::current_exception();
        }
    }
    if (first_error) std::rethrow_exception(first_error);
}

}  // namespace iocov::exec
