// perfbench_test — self-tests of the benchmark's own machinery: the
// percentile rule, failure accounting, and run determinism.
//
//   perfbench_test            run every test; exit status 0 iff all pass.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::printf("  FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);  \
    }                                                                  \
  } while (0)

using perfbench::FailureKind;

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  // Descending, so the helper must order the samples itself.
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

void PercentileNeedsTenSamplesBeyond() {
  EXPECT(perfbench::Percentile(Ramp(1000), 99).has_value());
  EXPECT(*perfbench::Percentile(Ramp(1000), 99) == 990.0);
  EXPECT(!perfbench::Percentile(Ramp(999), 99).has_value());
  EXPECT(!perfbench::Percentile(Ramp(10), 50).has_value());
  EXPECT(*perfbench::Percentile(Ramp(20), 50) == 10.0);
  EXPECT(!perfbench::Percentile({}, 50).has_value());
}

void HighestReportablePercentile() {
  EXPECT(perfbench::HighestReportablePercentile(19) == 0.0);
  EXPECT(perfbench::HighestReportablePercentile(20) == 50.0);
  EXPECT(perfbench::HighestReportablePercentile(100) == 90.0);
  EXPECT(perfbench::HighestReportablePercentile(999) == 90.0);
  EXPECT(perfbench::HighestReportablePercentile(1000) == 99.0);
  EXPECT(perfbench::HighestReportablePercentile(10000) == 99.9);
}

void MedianOfOddAndEven() {
  EXPECT(perfbench::Median({3, 1, 2}) == 2.0);
  EXPECT(perfbench::Median({4, 1, 3, 2}) == 2.5);
  EXPECT(perfbench::Median({}) == 0.0);
}

void QuietMedianTakesTheFasterHalf() {
  EXPECT(perfbench::QuietMedian({5, 1, 9, 3, 7}) == 3.0);  // Of {1, 3, 5}.
  EXPECT(perfbench::QuietMedian({4, 2, 8, 6}) == 3.0);     // Of {2, 4}.
  EXPECT(perfbench::QuietMedian({}) == 0.0);
}

void LedgerCountsEachKind() {
  perfbench::CallLedger ledger;
  for (int i = 0; i < 8; ++i) ledger.Attempt();
  ledger.Fail(FailureKind::kStatus);
  ledger.Fail(FailureKind::kOutOfBound);
  ledger.Fail(FailureKind::kOutOfBound);
  ledger.Fail(FailureKind::kRoundTrip);
  EXPECT(ledger.attempted() == 8);
  EXPECT(ledger.failed() == 4);
  EXPECT(ledger.failed(FailureKind::kStatus) == 1);
  EXPECT(ledger.failed(FailureKind::kOutOfBound) == 2);
  EXPECT(ledger.failed(FailureKind::kRoundTrip) == 1);
  EXPECT(ledger.FailedShare() == 0.5);
  EXPECT(perfbench::CallLedger().FailedShare() == 0.0);
}

void WithinBoundIsTwoSided() {
  EXPECT(perfbench::WithinBound(140, 100, 0.4));
  EXPECT(perfbench::WithinBound(60, 100, 0.4));
  EXPECT(!perfbench::WithinBound(141, 100, 0.4));
  EXPECT(!perfbench::WithinBound(0, 100, 0.4));
}

bool SameUpdates(const std::vector<rs::Stream>& a,
                 const std::vector<rs::Stream>& b) {
  if (a.size() != b.size()) return false;
  for (size_t t = 0; t < a.size(); ++t) {
    if (a[t].size() != b[t].size()) return false;
    for (size_t i = 0; i < a[t].size(); ++i) {
      if (a[t][i].item != b[t][i].item || a[t][i].delta != b[t][i].delta) {
        return false;
      }
    }
  }
  return true;
}

// A plan shrunk to a few calls, so each test run takes well under a
// second of hub time.
perfbench::Plan SmallPlan(perfbench::Workload w, uint64_t seed) {
  perfbench::Plan plan = perfbench::MakePlan(w, seed, 1.0);
  plan.writes = plan.tenants.size() * (w == perfbench::Workload::kF2Ingest
                                           ? 48
                                           : plan.batch == 1 ? 300 : 2);
  plan.warmup_writes = plan.tenants.size();
  plan.repeats = 1;
  return plan;
}

perfbench::RunResult SmallRun(perfbench::Workload w, uint64_t seed) {
  return perfbench::RunWorkload(SmallPlan(w, seed), {});
}

void SameSeedSameCounts() {
  for (const perfbench::Workload w : perfbench::kAllWorkloads) {
    std::printf("  %s\n", perfbench::WorkloadName(w));
    const perfbench::RunResult a = SmallRun(w, 7);
    const perfbench::RunResult b = SmallRun(w, 7);
    const perfbench::RunResult c = SmallRun(w, 8);
    EXPECT(a.correct());
    EXPECT(a.counts == b.counts);
    EXPECT(SameUpdates(a.sent, b.sent));
    EXPECT(!SameUpdates(a.sent, c.sent));
    EXPECT(a.counts.updates > 0);
    EXPECT(a.counts.snapshot_bytes > 0);
    EXPECT(a.counts.footprint_bytes > 0);
    EXPECT(a.counts.attempted ==
           a.counts.writes + a.counts.reads +
               2 * SmallPlan(w, 7).repeats * SmallPlan(w, 7).persist_group);
    // Every pass ran (a later pass answering otherwise than the first
    // would have made the run incorrect), and each call of a pass has its
    // fastest latency.
    EXPECT(a.passes.size() == SmallPlan(w, 7).passes);
    EXPECT(a.write_us.size() == a.counts.writes);
    EXPECT(a.read_us.size() == a.counts.reads);
  }
}

// Throughput times each window by the pass that spent the least time in
// it: 200 updates over 1.0 s + 0.5 s, not over either pass's own time.
void ThroughputTimesEachWindowByItsFastestPass() {
  perfbench::RunResult r;
  r.passes.assign(2, std::vector<perfbench::Window>(3));
  r.passes[0][0] = {100, 1.0};
  r.passes[1][0] = {100, 2.0};
  r.passes[0][1] = {100, 3.0};
  r.passes[1][1] = {100, 0.5};
  // The third window made no calls in either pass.
  EXPECT(r.UpdatesPerSecond() == 200.0 / 1.5);
  EXPECT(perfbench::RunResult().UpdatesPerSecond() == 0.0);
}

// The engine-hosted fp tenant publishes 0 until its first gate at 1024
// updates, so the first 31 queries (after 32..992 updates) are out of
// bound. That stale output is part of the baseline failed_share.
void StaleOutputCountsAsOutOfBound() {
  const perfbench::RunResult r =
      SmallRun(perfbench::Workload::kF2Ingest, 3);
  EXPECT(r.counts.failed_by_kind[static_cast<size_t>(
             FailureKind::kOutOfBound)] >= 31);
  EXPECT(r.counts.failed_by_kind[static_cast<size_t>(FailureKind::kStatus)] ==
         0);
  EXPECT(r.counts.failed_by_kind[static_cast<size_t>(
             FailureKind::kRoundTrip)] == 0);
  EXPECT(r.counts.failed ==
         r.counts.failed_by_kind[0] + r.counts.failed_by_kind[1] +
             r.counts.failed_by_kind[2]);
}

void PlansAreFixedBySecondsNotClock() {
  const perfbench::Plan a =
      perfbench::MakePlan(perfbench::Workload::kF0Fleet, 1, 10.0);
  const perfbench::Plan b =
      perfbench::MakePlan(perfbench::Workload::kF0Fleet, 1, 10.0);
  EXPECT(a.writes == b.writes);
  EXPECT(a.writes / a.query_every >= 1000);  // Enough reads for a p99.
  const perfbench::Plan tiny =
      perfbench::MakePlan(perfbench::Workload::kF2Ingest, 1, 0.01);
  EXPECT(tiny.writes >= 1000);
}

}  // namespace

int main() {
  const std::vector<std::pair<const char*, std::function<void()>>> tests = {
      {"PercentileNeedsTenSamplesBeyond", PercentileNeedsTenSamplesBeyond},
      {"HighestReportablePercentile", HighestReportablePercentile},
      {"MedianOfOddAndEven", MedianOfOddAndEven},
      {"QuietMedianTakesTheFasterHalf", QuietMedianTakesTheFasterHalf},
      {"LedgerCountsEachKind", LedgerCountsEachKind},
      {"WithinBoundIsTwoSided", WithinBoundIsTwoSided},
      {"PlansAreFixedBySecondsNotClock", PlansAreFixedBySecondsNotClock},
      {"ThroughputTimesEachWindowByItsFastestPass",
       ThroughputTimesEachWindowByItsFastestPass},
      {"StaleOutputCountsAsOutOfBound", StaleOutputCountsAsOutOfBound},
      {"SameSeedSameCounts", SameSeedSameCounts},
  };
  for (const auto& [name, test] : tests) {
    const int before = g_failures;
    std::printf("[ RUN  ] %s\n", name);
    test();
    std::printf("[ %s ] %s\n", g_failures == before ? " OK " : "FAIL", name);
  }
  std::printf("%s\n", g_failures == 0 ? "all tests passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
