// Sample statistics for the benchmark: medians, nearest-rank
// percentiles, the "highest percentile with at least ten samples beyond
// it" rule, and open-loop lateness accounting.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty vector.
double median(std::vector<double> v);

/// Nearest-rank percentile: the smallest sample such that at least
/// `pct` percent of the samples are <= it.  `pct` in (0, 100].
double percentile(std::vector<double> v, double pct);

/// The highest of 99.9, 99, 95, 90, 75, 50 that leaves at least ten
/// samples strictly beyond it in a set of `n` samples (nearest rank:
/// the samples beyond the p-th percentile are n - ceil(p/100 * n)).
/// Returns 0 when not even the median qualifies (n < 20).
double tail_percentile_rank(std::size_t n);

/// One request of an open-loop generator: when it was due, when the
/// generator actually sent it, and when its reply arrived (seconds on a
/// common clock).
struct Request {
    double due = 0;
    double sent = 0;
    double done = 0;
};

/// Latency as the client sees it: from the scheduled send time, so a
/// stall is charged to every request queued behind it.
std::vector<double> latencies_ms(const std::vector<Request>& reqs);

/// How late the generator itself ran, per request: the gap between the
/// moment it could send (the due time, or the previous reply on the same
/// connection if that came later) and the actual send.  Large values
/// mean the load generator, not the system, set the schedule.
std::vector<double> generator_lateness_ms(const std::vector<Request>& reqs);

/// True when the backlog of due-but-unsent requests grows over the
/// series: the mean send delay (sent - due) over the last quarter
/// exceeds the first quarter's by more than `slack_ms`.  A stable queue
/// keeps a constant delay; an overloaded one adds delay every interval.
bool backlog_grows(const std::vector<Request>& reqs, double slack_ms);

}  // namespace perfbench
