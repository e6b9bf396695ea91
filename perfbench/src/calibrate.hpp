// Host-speed calibration.
//
// A shared host's single-thread speed drifts by tens of percent over
// seconds to minutes (neighbours on the same physical cores), which would
// swamp any change a benchmark is meant to catch.  The workloads therefore
// time a fixed kernel that does not touch the library (sort, hash-map
// probes, hashing: the mix of branches, cache misses and arithmetic that
// ingest does) around every timed unit and report times scaled to the
// speed at which that kernel takes kCalibrationRefS.  A change to the library cannot move the kernel, so
// the scaled times still move one for one with the library's own cost.
// The raw times are printed next to them.
#pragma once

#include <vector>

namespace perfbench {

/// The kernel's time on the reference host (a quiet moment on a 4-vCPU
/// 2 GHz Xeon VM); scaled times equal raw times when the host runs at
/// that speed.
inline constexpr double kCalibrationRefS = 0.0165;

/// Seconds the fixed kernel takes now.
double calibrate();

/// `t` scaled from a host whose kernel time is `cal` to the reference.
inline double normalized(double t, double cal) {
    return cal > 0 ? t * kCalibrationRefS / cal : t;
}

class HostSpeed {
  public:
    /// Each sample is the fastest of `tries` kernel runs: interference
    /// only adds time, so the minimum follows the CPU's own speed more
    /// closely than one run does.
    explicit HostSpeed(int tries = 1) : tries_(tries) {}

    /// Times the kernel now and remembers the result.
    double sample();

    /// Scales a duration measured since the previous sample by the mean
    /// of that sample and a new one taken now.
    double normalize_since_last(double t);

    /// Scales a duration measured right after the latest sample.
    double normalize_at_last(double t) const;

    /// Reference kernel time over the median kernel time of the run
    /// (1 = the reference host's speed, 0.8 = 20 % slower).
    double speed() const;

  private:
    int tries_;
    std::vector<double> samples_;  ///< kernel seconds, in time order
};

}  // namespace perfbench
