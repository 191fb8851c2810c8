// perfbench — one run of one workload of the repository benchmark.
//
//   perfbench --workload <f2_ingest|f0_fleet|adaptive_game> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and traced (their throughput ratio is trace.overhead_share),
// replays the traced run's updates layer by layer, writes every span to
// <trace-dir>/<workload>.tsv and prints the per-layer metrics. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit status is non-zero if any check failed (a non-OK status, a
// restore that does not round-trip byte-identically) or a metric could
// not be reported.
//
// With --setup-child 1 it only times plan.setup_group fresh builds of the
// workload's tenants and prints the seconds per build: the mode in which
// a run starts itself as a fresh process to time set-up.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "layers.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

struct Args {
  perfbench::Workload workload = perfbench::Workload::kF2Ingest;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool setup_child = false;
  std::string trace_dir = ".";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = perfbench::WorkloadFromName(value);
      if (!w.has_value()) return std::nullopt;
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--setup-child") {
      args.setup_child = std::string_view(value) == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (!have_workload || argc % 2 == 0) return std::nullopt;
  return args;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

// Fails the run (exit 1, no result line) when a percentile is refused.
double MustPercentile(const std::vector<double>& samples, double p,
                      const char* what) {
  const std::optional<double> v = perfbench::Percentile(samples, p);
  if (!v.has_value()) {
    std::fprintf(stderr,
                 "perfbench: %s p%g refused: %zu samples (p%g is the highest "
                 "with %zu beyond it)\n",
                 what, p, samples.size(),
                 perfbench::HighestReportablePercentile(samples.size()),
                 perfbench::kMinTail);
    std::exit(1);
  }
  return *v;
}

void PrintCounts(const perfbench::RunResult& run) {
  const perfbench::Counts& c = run.counts;
  std::printf(
      "counts: updates=%llu writes=%llu reads=%llu flips=%llu "
      "snapshot_bytes=%llu footprint_bytes=%llu attempted=%llu failed=%llu",
      static_cast<unsigned long long>(c.updates),
      static_cast<unsigned long long>(c.writes),
      static_cast<unsigned long long>(c.reads),
      static_cast<unsigned long long>(c.flips),
      static_cast<unsigned long long>(c.snapshot_bytes),
      static_cast<unsigned long long>(c.footprint_bytes),
      static_cast<unsigned long long>(c.attempted),
      static_cast<unsigned long long>(c.failed));
  for (size_t k = 0; k < perfbench::kFailureKinds; ++k) {
    std::printf(" failed_%s=%llu",
                perfbench::FailureKindName(
                    static_cast<perfbench::FailureKind>(k)),
                static_cast<unsigned long long>(c.failed_by_kind[k]));
  }
  std::printf("\n");
  for (const std::string& e : run.errors) {
    std::printf("error: %s\n", e.c_str());
  }
}

int PrintResult(const perfbench::RunResult& run,
                const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              run.correct() ? "true" : "false",
              static_cast<unsigned long long>(run.counts.attempted),
              static_cast<unsigned long long>(run.counts.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return run.correct() ? 0 : 1;
}

int EndToEnd(const perfbench::Plan& plan) {
  perfbench::RunOptions options;
  options.setup_exe = "/proc/self/exe";
  const perfbench::RunResult run = perfbench::RunWorkload(plan, options);
  PrintCounts(run);
  if (!run.correct()) return PrintResult(run, {});
  const std::vector<double>& writes = run.write_us;
  const std::vector<double>& reads = run.read_us;
  std::printf("latency samples: writes=%zu reads=%zu (highest "
              "percentile: writes p%g, reads p%g)\n",
              writes.size(), reads.size(),
              perfbench::HighestReportablePercentile(writes.size()),
              perfbench::HighestReportablePercentile(reads.size()));
  constexpr double kMiB = 1024.0 * 1024.0;
  const std::vector<Metric> metrics = {
      {"upd_per_s", run.UpdatesPerSecond(), "1/s"},
      {"write_p50_us", MustPercentile(writes, 50, "write"), "us"},
      {"write_p99_us", MustPercentile(writes, 99, "write"), "us"},
      {"read_p50_us", MustPercentile(reads, 50, "read"), "us"},
      {"read_p99_us", MustPercentile(reads, 99, "read"), "us"},
      {"setup_s", run.setup_s, "s"},
      {"snapshot_ms", run.snapshot_ms, "ms"},
      {"restore_ms", run.restore_ms, "ms"},
      {"snapshot_mib", static_cast<double>(run.counts.snapshot_bytes) / kMiB,
       "MiB"},
      {"footprint_mib",
       static_cast<double>(run.counts.footprint_bytes) / kMiB, "MiB"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
      {"failed_share",
       static_cast<double>(run.counts.failed) /
           static_cast<double>(run.counts.attempted),
       "share"},
  };
  return PrintResult(run, metrics);
}

int Traced(const Args& args, const perfbench::Plan& plan) {
  perfbench::RunOptions untraced_options;
  untraced_options.persist = false;
  const perfbench::RunResult untraced =
      perfbench::RunWorkload(plan, untraced_options);

  perfbench::Tracer tracer(true);
  perfbench::RunOptions traced_options;
  traced_options.tracer = &tracer;
  perfbench::RunResult traced = perfbench::RunWorkload(plan, traced_options);
  PrintCounts(traced);
  if (!untraced.correct() || !traced.correct()) {
    for (const std::string& e : untraced.errors) traced.errors.push_back(e);
    return PrintResult(traced, {});
  }
  if (untraced.counts.updates != traced.counts.updates) {
    traced.errors.push_back("the traced run made other calls than the "
                            "untraced run");
    return PrintResult(traced, {});
  }

  std::vector<Metric> metrics =
      perfbench::ReplayLayers(plan, traced, &tracer);
  metrics.push_back({"trace.overhead_share",
                     1.0 - traced.UpdatesPerSecond() /
                               untraced.UpdatesPerSecond(),
                     "share"});
  const std::string path = args.trace_dir + "/" +
                           perfbench::WorkloadName(args.workload) + ".tsv";
  if (!tracer.WriteTsv(path)) {
    traced.errors.push_back("could not write spans to " + path);
  } else {
    std::printf("spans: %zu written to %s\n", tracer.records().size(),
                path.c_str());
  }
  return PrintResult(traced, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <f2_ingest|f0_fleet|"
                 "adaptive_game> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-dir <dir>]\n");
    return 2;
  }
  // The traced run reports no percentiles and sums its spans over all
  // calls, so it makes one pass (the untimed run, the traced run and the
  // replay each make the calls of one pass).
  perfbench::Plan plan =
      perfbench::MakePlan(args->workload, args->seed, args->seconds);
  if (args->setup_child) {
    const std::optional<double> seconds = perfbench::TimeFreshBuilds(plan);
    if (!seconds.has_value()) return 1;
    std::printf("%.17g\n", *seconds);
    return 0;
  }
  if (args->trace) plan.passes = 1;
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "tenants=%zu writes=%zu passes=%zu batch=%zu\n",
              perfbench::WorkloadName(args->workload),
              static_cast<unsigned long long>(args->seed), args->seconds,
              args->trace ? 1 : 0, plan.tenants.size(), plan.writes,
              plan.passes, plan.batch);
  return args->trace ? Traced(*args, plan) : EndToEnd(plan);
}
