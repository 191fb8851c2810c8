#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

// Samples beyond the nearest-rank p-th percentile of n samples.
size_t TailBeyond(size_t n, double p) {
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - std::max<size_t>(rank, 1);
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, double p) {
  const size_t n = samples.size();
  if (n == 0 || !(p > 0.0 && p < 100.0) || TailBeyond(n, p) < kMinTail) {
    return std::nullopt;
  }
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9)));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double HighestReportablePercentile(size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (n > 0 && TailBeyond(n, p) >= kMinTail) best = p;
  }
  return best;
}

double Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) return 0.0;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double QuietMedian(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  samples.resize((samples.size() + 1) / 2);
  return Median(std::move(samples));
}

const char* FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kStatus:
      return "status";
    case FailureKind::kOutOfBound:
      return "out_of_bound";
    case FailureKind::kRoundTrip:
      return "round_trip";
  }
  return "unknown";
}

void CallLedger::Fail(FailureKind kind) {
  ++failed_;
  ++by_kind_[static_cast<size_t>(kind)];
}

double CallLedger::FailedShare() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

bool WithinBound(double estimate, double truth, double eps) {
  return std::abs(estimate - truth) <= eps * std::abs(truth);
}

}  // namespace perfbench
