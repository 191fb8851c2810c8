// workloads.h — the benchmark's three StreamHub workloads.
//
// Every workload drives rs::runtime::StreamHub through a single-threaded
// closed loop: the client issues its next call only after the previous one
// returned. A run's length is a fixed count of calls derived from the
// workload, the seed and the requested seconds — never from the clock — so
// two runs with the same arguments make exactly the same calls and get
// exactly the same answers.
//
//   f2_ingest      one fp (p = 2) tenant, Zipf(1.1) batches of 32, a Query
//                  after every batch.
//   f0_fleet       64 f0 tenants (S = 1 and S = 2 alternating), Zipf(1.1)
//                  batches of 256 round-robin, a Query every 8th batch.
//   adaptive_game  f0 switching / paths / dp vs flip_flood and is_fp vs
//                  f2_drift, one Update and one Query per round.
//
// Answers are checked off the clock against an exact oracle.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rs/core/robust.h"
#include "rs/stream/update.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

enum class Workload { kF2Ingest, kF0Fleet, kAdaptiveGame };
inline constexpr Workload kAllWorkloads[] = {
    Workload::kF2Ingest, Workload::kF0Fleet, Workload::kAdaptiveGame};

const char* WorkloadName(Workload workload);
std::optional<Workload> WorkloadFromName(std::string_view name);

// The quantity a tenant's answers are checked against.
enum class Truth { kF0, kF2 };

// The settings every tenant shares: eps = 0.4, delta = 0.05, n = 2^20,
// m = M = 2^24, one engine thread, and fp.p and engine.shards set
// explicitly (p = 2, S = 1) so no default applies silently.
rs::RobustConfig BaseConfig();

struct TenantSpec {
  std::string name;
  std::string task_key;
  rs::RobustConfig config;
  uint64_t seed = 0;
  Truth truth = Truth::kF0;
  // adaptive_game only: the rs::MakeAttack key, and whether the tenant is
  // snapshot-capable and so part of the snapshot/restore measurement.
  std::string attack;
  bool persisted = false;
};

// Everything one run does, fixed before it starts.
struct Plan {
  Workload workload = Workload::kF2Ingest;
  uint64_t seed = 0;  // The workload seed the plan was made from.
  std::vector<TenantSpec> tenants;
  size_t batch = 1;        // Updates per write call.
  size_t writes = 0;       // Write calls in one measured pass.
  // The measured loop runs this many times, each pass on a fresh hub with
  // the same tenants and seeds, so every pass makes the same calls and
  // must get the same answers. Only the first pass is counted and judged.
  size_t passes = 1;
  size_t query_every = 1;  // Write calls per Query call.
  size_t warmup_writes = 0;  // Untimed writes on a throw-away hub first.
  // Timed snapshot / restore repeats. With more than one pass they are
  // spread evenly over the windows of the passes after the first, so
  // they sample the host over most of the run rather than over the last
  // second or two.
  size_t repeats = 5;
  // Builds, snapshots or restores timed together as one repeat, so no
  // timed event is shorter than about a millisecond; each repeat reports
  // its time divided by the group size.
  size_t setup_group = 1;
  size_t persist_group = 1;
};

// The plan for `seconds` of measured work. Sizes scale linearly with
// seconds and never drop below what a p99 of reads and writes needs.
Plan MakePlan(Workload workload, uint64_t seed, double seconds);

// Exact counts of one run: equal arguments give equal counts.
struct Counts {
  uint64_t updates = 0;
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t flips = 0;  // Sum of flips_spent over the tenants at the end.
  uint64_t snapshot_bytes = 0;
  uint64_t footprint_bytes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t failed_by_kind[kFailureKinds] = {};

  bool operator==(const Counts&) const = default;
};

struct RunOptions {
  // The perfbench executable. When set, set-up is timed: each repeat runs
  // it with --setup-child 1 as a fresh process, which prints
  // TimeFreshBuilds() of the plan, so the process-wide first-use tables
  // (the p-stable sample table) are paid inside the timed region exactly
  // as a new process pays them.
  std::string setup_exe;
  bool persist = true;        // Time snapshot and restore.
  Tracer* tracer = nullptr;   // Spans around every hub call when enabled.
};

// Every measured pass makes the same calls on the same state, so each
// call and each stretch of calls is timed once per pass. Contention from
// outside the process slows a call or a stretch in one pass and not in
// another, by up to 2x, while the workload itself is faster in some
// stretches than in others (a fresh f0 tenant is cheap until its KMV heap
// fills). So a run compares a call only with the same call of the other
// passes, and reports the fastest of its timings:
//
//   latency percentiles  over the calls of one pass, each call's latency
//                        the least of its timings over the passes;
//   upd_per_s            the updates of one pass over the seconds inside
//                        hub calls, each of kWindows runs of consecutive
//                        write calls (and the reads after them) timed by
//                        the pass that spent the least time in it.
//
// Each pass starts on the quietest CPU (cpu.h) and stays there.
inline constexpr size_t kWindows = 200;

struct Window {
  uint64_t updates = 0;
  double hub_seconds = 0.0;  // Time inside the window's hub calls.
};

struct RunResult {
  Counts counts;
  // passes[p][w]: window w of measured pass p.
  std::vector<std::vector<Window>> passes;
  // write_us[i], read_us[i]: the least latency, over the passes, of the
  // i-th write and the i-th Query call of a pass.
  std::vector<double> write_us;
  std::vector<double> read_us;
  double setup_s = 0.0;
  double snapshot_ms = 0.0;
  double restore_ms = 0.0;
  // The updates each tenant received in a pass, in order.
  std::vector<rs::Stream> sent;
  // Calls that returned a non-OK status or broke an invariant the
  // benchmark checks (restore round trip, replay agreement, a later pass
  // answering other than the first).
  std::vector<std::string> errors;

  bool correct() const { return errors.empty(); }
  // Updates of one pass per second inside hub calls, each window timed by
  // its fastest pass.
  double UpdatesPerSecond() const;
};

RunResult RunWorkload(const Plan& plan, const RunOptions& options);

// Seconds per build of plan.setup_group hubs, each from empty to all
// tenants created, timed together in this process. nullopt if a create
// failed.
std::optional<double> TimeFreshBuilds(const Plan& plan);

// The first `limit` updates in the order the hub received them.
rs::Stream HubOrder(const Plan& plan, const std::vector<rs::Stream>& sent,
                    size_t limit);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
