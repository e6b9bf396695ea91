#include "core/live.hpp"

#include <utility>

namespace iocov::core {

LiveCoverage::LiveCoverage(trace::FilterConfig filter_config,
                           const std::vector<SyscallSpec>& registry)
    : filter_config_(std::move(filter_config)), registry_(&registry) {
    acc_ = fresh();
    delta_ = fresh();
    auto p = std::make_shared<Published>();
    p->state = acc_->snapshot();
    {
        std::lock_guard<std::mutex> lock(pub_mu_);
        published_ = std::move(p);
    }
}

std::unique_ptr<IOCov> LiveCoverage::fresh() const {
    return std::make_unique<IOCov>(filter_config_, *registry_);
}

LiveCoverage::PushResult LiveCoverage::push(const std::string& name,
                                            std::string_view ioct,
                                            unsigned n_threads) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    if (seen_.count(name))
        return {false, static_cast<std::uint64_t>(order_.size()), 0, 0};
    // One shard, exactly like one file of consume_binary_dir (the shard
    // rule, core/iocov.hpp): the merged result is independent of push
    // order.
    auto shard = fresh();
    const std::size_t dropped =
        shard->consume_binary_parallel(ioct, n_threads);
    const std::uint64_t events = shard->ingest_stats().events;
    acc_->merge(*shard);
    delta_->merge(*shard);
    ++delta_pushes_;
    seen_.insert(name);
    order_.push_back(name);
    publish_locked();
    return {true, static_cast<std::uint64_t>(order_.size()), dropped, events};
}

void LiveCoverage::publish_locked() {
    auto p = std::make_shared<Published>();
    p->epoch = order_.size();
    p->state = acc_->snapshot();
    std::lock_guard<std::mutex> lock(pub_mu_);
    published_ = std::move(p);
}

std::shared_ptr<const LiveCoverage::Published> LiveCoverage::read() const {
    std::lock_guard<std::mutex> lock(pub_mu_);
    return published_;
}

std::vector<std::string> LiveCoverage::consumed() const {
    std::lock_guard<std::mutex> lock(writer_mu_);
    return order_;
}

IOCovSnapshot LiveCoverage::take_delta(std::uint64_t* pushes) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    if (pushes) *pushes = delta_pushes_;
    IOCovSnapshot out = delta_->snapshot();
    delta_ = fresh();
    delta_pushes_ = 0;
    return out;
}

void LiveCoverage::restore(const IOCovSnapshot& state,
                           std::vector<std::string> consumed_names) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    acc_ = fresh();
    acc_->merge(state);
    delta_ = fresh();
    delta_pushes_ = 0;
    order_ = std::move(consumed_names);
    seen_.clear();
    for (const auto& n : order_) seen_.insert(n);
    publish_locked();
}

}  // namespace iocov::core
