// stats.h — the benchmark's order statistics and failure accounting.
//
// Percentiles follow one rule everywhere: a percentile is reported only
// when at least kMinTail samples lie beyond it, so p99 needs 1000 samples
// and p50 needs 20. A refused percentile is an empty optional, never a
// number read off too few samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// Samples that must lie strictly beyond a reported percentile.
inline constexpr size_t kMinTail = 10;

// Nearest-rank p-th percentile (0 < p < 100) of `samples`, or nullopt when
// fewer than kMinTail samples lie beyond it.
std::optional<double> Percentile(std::vector<double> samples, double p);

// The highest of 50, 90, 99, 99.9, 99.99 that Percentile() accepts for n
// samples; 0 when n is too small for even the median.
double HighestReportablePercentile(size_t n);

// Median (mean of the two middle values for even sizes); 0 when empty.
double Median(std::vector<double> samples);

// Median of the faster (smaller) half of `samples`: the figure of the
// repeats that contention from outside the process left alone.
double QuietMedian(std::vector<double> samples);

// Why a call counts as failed (each failed call has exactly one kind: the
// first that applies, in this order).
enum class FailureKind {
  kStatus = 0,      // The call returned a non-OK rs::Status.
  kOutOfBound = 1,  // The answer left (1 +- eps) of the exact truth.
  kRoundTrip = 2,   // A restore whose re-snapshot differs from the source.
};
inline constexpr size_t kFailureKinds = 3;
const char* FailureKindName(FailureKind kind);

// Attempted and failed calls of one run: failed_share = failed / attempted.
class CallLedger {
 public:
  void Attempt() { ++attempted_; }
  void Fail(FailureKind kind);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t failed(FailureKind kind) const {
    return by_kind_[static_cast<size_t>(kind)];
  }
  // 0 when nothing was attempted.
  double FailedShare() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t by_kind_[kFailureKinds] = {};
};

// True when `estimate` lies within (1 +- eps) of `truth`.
bool WithinBound(double estimate, double truth, double eps);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
