#include "workloads.h"

#include <spawn.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "rs/adversary/attack.h"
#include "rs/runtime/stream_hub.h"
#include "rs/stream/exact_oracle.h"
#include "rs/stream/generators.h"
#include "rs/util/rng.h"
#include "cpu.h"

namespace perfbench {

namespace {

using rs::runtime::QueryResult;
using rs::runtime::StreamHub;

constexpr double kZipfSkew = 1.1;
constexpr size_t kFleetTenants = 64;
// Timed set-up repeats, each in a fresh process.
constexpr size_t kSetupRepeats = 15;

// Derives independent seeds for the estimators, the data and the warm-up
// from the one workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return rs::SplitMix64(seed ^ rs::SplitMix64(salt));
}

size_t Scaled(double per_second, double seconds, size_t floor) {
  const double want = std::round(per_second * std::max(seconds, 0.0));
  return std::max(floor, static_cast<size_t>(want));
}

double TruthOf(Truth truth, const rs::ExactOracle& oracle) {
  return truth == Truth::kF0 ? static_cast<double>(oracle.F0())
                             : oracle.F2();
}

// A measured Query's answer, judged once the measured loop is over.
struct Answer {
  size_t tenant = 0;
  size_t position = 0;  // Updates the tenant had received.
  double estimate = 0.0;
};

// One hub plus the accounting of the calls made on it. A client without
// windows (the warm-up) times nothing. A client without a ledger (a pass
// after the first) times its calls but counts none, and checks every
// answer against the first pass's answer at the same index instead of
// keeping it. Every client reports non-OK statuses.
class Client {
 public:
  Client(StreamHub* hub, RunResult* result, std::vector<Window>* windows,
         CallLedger* ledger, const std::vector<Answer>* expected,
         Tracer* tracer)
      : hub_(hub),
        result_(result),
        windows_(windows),
        ledger_(ledger),
        expected_(expected),
        tracer_(tracer),
        batch_span_(tracer->Intern("hub.update_batch")),
        single_span_(tracer->Intern("hub.update")),
        query_span_(tracer->Intern("hub.query")) {}

  // Runs `f(w)` before the first call of window w.
  void set_between_windows(std::function<void(size_t)> f) {
    between_windows_ = std::move(f);
  }

  // Timed calls from here on belong to window `w`.
  void set_window(size_t w) {
    if (windows_ == nullptr || window_ == &(*windows_)[w]) return;
    if (between_windows_) between_windows_(w);
    window_ = &(*windows_)[w];
  }

  void Write(const std::string& name, const rs::Update* ups, size_t count,
             bool single) {
    const int64_t t0 = NowNs();
    const rs::Status st = single ? hub_->Update(name, ups[0])
                                 : hub_->UpdateBatch(name, ups, count);
    const int64_t t1 = NowNs();
    if (window_ != nullptr) {
      KeepFastest(&result_->write_us, writes_++, t1 - t0);
      window_->hub_seconds += static_cast<double>(t1 - t0) * 1e-9;
      window_->updates += count;
    }
    if (ledger_ != nullptr) {
      ledger_->Attempt();
      result_->counts.updates += count;
      ++result_->counts.writes;
      tracer_->Add(single ? single_span_ : batch_span_, t0, t1, count);
    }
    if (!st.ok()) Error("write to " + name, st, FailureKind::kStatus);
  }

  // Queries `name`, the tenant at index `tenant`, after it received
  // `position` updates. A counted answer is kept for judging after the
  // loop. nullopt (and a recorded error) on a non-OK status.
  std::optional<QueryResult> Read(const std::string& name, size_t tenant,
                                  size_t position) {
    const int64_t t0 = NowNs();
    rs::Result<QueryResult> r = hub_->Query(name);
    const int64_t t1 = NowNs();
    if (window_ != nullptr) {
      KeepFastest(&result_->read_us, reads_++, t1 - t0);
      window_->hub_seconds += static_cast<double>(t1 - t0) * 1e-9;
    }
    if (ledger_ != nullptr) {
      ledger_->Attempt();
      ++result_->counts.reads;
      tracer_->Add(query_span_, t0, t1);
    }
    if (!r.ok()) {
      Error("query of " + name, r.status(), FailureKind::kStatus);
      return std::nullopt;
    }
    if (ledger_ != nullptr) {
      answers_.push_back({tenant, position, r.value().estimate});
    } else if (expected_ != nullptr) {
      ExpectAnswer(name, r.value().estimate);
    }
    return r.value();
  }

  const std::vector<Answer>& answers() const { return answers_; }

 private:
  void Error(const std::string& what, const rs::Status& st,
             FailureKind kind) {
    if (ledger_ != nullptr) ledger_->Fail(kind);
    result_->errors.push_back(what + ": " + st.ToString());
  }

  // Records `ns` as the latency of the i-th call of its kind, unless an
  // earlier pass timed that call faster.
  static void KeepFastest(std::vector<double>* fastest, size_t i,
                          int64_t ns) {
    const double us = static_cast<double>(ns) * 1e-3;
    if (i == fastest->size()) {
      fastest->push_back(us);
    } else {
      (*fastest)[i] = std::min((*fastest)[i], us);
    }
  }

  // A later pass makes the first pass's calls on an identical hub, so it
  // must get the first pass's answers, bit for bit.
  void ExpectAnswer(const std::string& name, double estimate) {
    const size_t i = next_expected_++;
    if (mismatched_) return;
    if (i >= expected_->size() || (*expected_)[i].estimate != estimate) {
      mismatched_ = true;
      result_->errors.push_back("query " + std::to_string(i) + " of " +
                                name + " answered otherwise than in the "
                                "first pass");
    }
  }

  StreamHub* hub_;
  RunResult* result_;
  std::vector<Window>* windows_;
  CallLedger* ledger_;
  const std::vector<Answer>* expected_;
  Tracer* tracer_;
  Window* window_ = nullptr;
  std::function<void(size_t)> between_windows_;
  std::vector<Answer> answers_;
  size_t writes_ = 0;  // Timed calls so far in this pass.
  size_t reads_ = 0;
  size_t next_expected_ = 0;
  bool mismatched_ = false;
  uint32_t batch_span_;
  uint32_t single_span_;
  uint32_t query_span_;
};

// Creates every tenant of `tenants` whose `persisted` flag is set, or all
// of them when `only_persisted` is false.
bool CreateTenants(StreamHub* hub, const std::vector<TenantSpec>& tenants,
                   bool only_persisted, uint64_t seed_salt,
                   std::vector<std::string>* errors) {
  bool ok = true;
  for (const TenantSpec& t : tenants) {
    if (only_persisted && !t.persisted) continue;
    const rs::Status st = hub->CreateStream(t.name, t.task_key, t.config,
                                            t.seed ^ seed_salt);
    if (!st.ok()) {
      if (errors != nullptr) {
        errors->push_back("create " + t.name + ": " + st.ToString());
      }
      ok = false;
    }
  }
  return ok;
}

// Runs `exe` in its set-up mode as a fresh process and returns the seconds
// per build it prints (TimeFreshBuilds). nullopt if the child failed.
std::optional<double> TimeSetupInFreshProcess(const std::string& exe,
                                              const Plan& plan) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string seed = std::to_string(plan.seed);
  const char* argv[] = {exe.c_str(),
                        "--workload", WorkloadName(plan.workload),
                        "--seed", seed.c_str(),
                        "--seconds", "1",
                        "--trace", "0",
                        "--setup-child", "1",
                        nullptr};
  pid_t pid = 0;
  std::fflush(stdout);
  const int spawned = posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                                  const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (spawned == 0) {
    char buf[256];
    ssize_t got = 0;
    while ((got = read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, got);
  }
  close(fds[0]);
  if (spawned != 0) return std::nullopt;
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  char* end = nullptr;
  const double seconds = std::strtod(out.c_str(), &end);
  if (end == out.c_str() || !(seconds > 0.0)) return std::nullopt;
  return seconds;
}

// Times set-up in fresh processes, one repeat at a time so that the
// repeats can be spread over the run.
class SetupTimer {
 public:
  // Runs one untimed warm-up repeat.
  SetupTimer(std::string exe, const Plan& plan, RunResult* result)
      : exe_(std::move(exe)), plan_(plan), result_(result) {
    Repeat(/*timed=*/false);
  }

  size_t timed_repeats() const { return samples_.size(); }

  void Repeat(bool timed = true) {
    if (failed_) return;
    MoveToQuietestCpu();
    const std::optional<double> s = TimeSetupInFreshProcess(exe_, plan_);
    if (!s.has_value()) {
      failed_ = true;
      result_->errors.push_back("timing set-up in a fresh process failed");
      return;
    }
    if (timed) samples_.push_back(*s);
  }

  void Finish() { result_->setup_s = QuietMedian(samples_); }

 private:
  std::string exe_;
  const Plan& plan_;
  RunResult* result_;
  bool failed_ = false;
  std::vector<double> samples_;
};

// Times Snapshot() of a hub and Restore() of its image into fresh hubs,
// in groups of plan.persist_group calls, one repeat at a time so that the
// repeats can be spread over the run. Every snapshot must equal the
// first, and every restored hub must re-snapshot to the identical bytes.
class PersistenceTimer {
 public:
  // Takes the reference image and runs one untimed warm-up repeat.
  PersistenceTimer(const StreamHub* hub, const Plan& plan, RunResult* result,
                   CallLedger* ledger, Tracer* tracer)
      : hub_(hub),
        group_(plan.persist_group),
        result_(result),
        ledger_(ledger),
        tracer_(tracer),
        snap_span_(tracer->Intern("hub.snapshot")),
        restore_span_(tracer->Intern("hub.restore")) {
    if (const rs::Status st = hub_->Snapshot(&image_); !st.ok()) {
      result_->errors.push_back("snapshot: " + st.ToString());
      return;
    }
    ok_ = true;
    result_->counts.snapshot_bytes = image_.size();
    Repeat(/*timed=*/false);
  }

  size_t timed_repeats() const { return snap_ms_.size(); }

  void Repeat(bool timed = true) {
    if (!ok_) return;
    MoveToQuietestCpu();
    std::vector<std::string> copies(group_);
    std::vector<rs::Status> statuses;
    statuses.reserve(group_);
    int64_t t0 = NowNs();
    for (std::string& copy : copies) statuses.push_back(hub_->Snapshot(&copy));
    int64_t t1 = NowNs();
    if (timed) {
      tracer_->Add(snap_span_, t0, t1, group_ * image_.size());
      snap_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6 /
                         static_cast<double>(group_));
    }
    for (size_t i = 0; i < group_; ++i) {
      if (timed) ledger_->Attempt();
      if (!statuses[i].ok()) {
        if (timed) ledger_->Fail(FailureKind::kStatus);
        result_->errors.push_back("snapshot: " + statuses[i].ToString());
      } else if (copies[i] != image_) {
        if (timed) ledger_->Fail(FailureKind::kRoundTrip);
        result_->errors.push_back("two snapshots of one hub differ");
      }
    }

    std::vector<StreamHub> fresh(group_);
    statuses.clear();
    t0 = NowNs();
    for (StreamHub& h : fresh) statuses.push_back(h.Restore(image_));
    t1 = NowNs();
    if (timed) {
      tracer_->Add(restore_span_, t0, t1, group_ * image_.size());
      restore_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6 /
                            static_cast<double>(group_));
    }
    for (size_t i = 0; i < group_; ++i) {
      std::string again;
      const rs::Status resnap =
          statuses[i].ok() ? fresh[i].Snapshot(&again) : statuses[i];
      if (timed) ledger_->Attempt();
      if (!resnap.ok()) {
        if (timed) ledger_->Fail(FailureKind::kStatus);
        result_->errors.push_back("restore: " + resnap.ToString());
      } else if (again != image_) {
        if (timed) ledger_->Fail(FailureKind::kRoundTrip);
        result_->errors.push_back(
            "restore round trip: the re-snapshot differs from the image");
      }
    }
  }

  // Reports the quiet medians of the timed repeats.
  void Finish() {
    result_->snapshot_ms = QuietMedian(snap_ms_);
    result_->restore_ms = QuietMedian(restore_ms_);
  }

 private:
  const StreamHub* hub_;
  size_t group_;
  RunResult* result_;
  CallLedger* ledger_;
  Tracer* tracer_;
  uint32_t snap_span_;
  uint32_t restore_span_;
  bool ok_ = false;
  std::string image_;
  std::vector<double> snap_ms_;
  std::vector<double> restore_ms_;
};

// Which windows of the passes after the first start with a timed repeat
// of set-up or persistence: `repeats` slots spread evenly over them, slot
// (p - 1) * kWindows + w standing for window w of pass p. Empty when there
// are fewer windows than repeats (then every repeat runs after the last
// pass).
std::vector<bool> SpreadSlots(size_t passes, size_t repeats) {
  const size_t slots = (passes - 1) * kWindows;
  std::vector<bool> out;
  if (repeats == 0 || slots < repeats) return out;
  out.assign(slots, false);
  for (size_t j = 0; j < repeats; ++j) {
    out[(2 * j + 1) * slots / (2 * repeats)] = true;
  }
  return out;
}

// Generates each tenant's Zipf stream, long enough for `writes` writes.
std::vector<rs::Stream> IngestStreams(const Plan& plan, size_t writes,
                                      Tracer* tracer) {
  const size_t tenants = plan.tenants.size();
  std::vector<rs::Stream> streams;
  streams.reserve(tenants);
  for (size_t t = 0; t < tenants; ++t) {
    const size_t own_writes = (writes + tenants - 1 - t) / tenants;
    const size_t len = own_writes * plan.batch;
    auto span = tracer->Open("load.next_update", len);
    streams.push_back(rs::ZipfStream(plan.tenants[t].config.stream.n, len,
                                     kZipfSkew,
                                     DeriveSeed(plan.tenants[t].seed, 0xDA7A)));
  }
  return streams;
}

// The ingest loop: write w goes to tenant w % T; after every query_every
// writes the next tenant in turn is queried.
void IngestLoop(Client* client, const Plan& plan,
                const std::vector<rs::Stream>& streams, size_t writes) {
  const size_t tenants = plan.tenants.size();
  std::vector<size_t> received(tenants, 0);
  for (size_t w = 0; w < writes; ++w) {
    client->set_window(w * kWindows / writes);
    const size_t t = w % tenants;
    const rs::Update* ups = &streams[t][received[t]];
    client->Write(plan.tenants[t].name, ups, plan.batch, plan.batch == 1);
    received[t] += plan.batch;
    if ((w + 1) % plan.query_every == 0) {
      const size_t q = (w / plan.query_every) % tenants;
      client->Read(plan.tenants[q].name, q, received[q]);
    }
  }
}

// The adaptive loop: round-robin over the tenants, each round one
// attacker-chosen Update and one Query. The attackers run between the
// timed calls. Returns false if an attacker ran out of updates.
bool GameLoop(Client* client, const Plan& plan, size_t writes,
              uint64_t attack_salt, std::vector<rs::Stream>* sent,
              Tracer* tracer, std::vector<std::string>* errors) {
  const size_t tenants = plan.tenants.size();
  const uint32_t gen_span = tracer->Intern("load.next_update");
  std::vector<std::unique_ptr<rs::Attack>> attacks;
  std::vector<rs::AdaptiveView> views(tenants);
  for (const TenantSpec& spec : plan.tenants) {
    attacks.push_back(rs::MakeAttack(spec.attack, spec.config.stream,
                                     DeriveSeed(spec.seed, attack_salt)));
    if (attacks.back() == nullptr) {
      errors->push_back("unknown attack " + spec.attack);
      return false;
    }
  }
  for (size_t w = 0; w < writes; ++w) {
    client->set_window(w * kWindows / writes);
    const size_t t = w % tenants;
    const TenantSpec& spec = plan.tenants[t];
    views[t].step = w / tenants + 1;
    const int64_t g0 = tracer->enabled() ? NowNs() : 0;
    const std::optional<rs::Update> u = attacks[t]->NextUpdate(views[t]);
    if (tracer->enabled()) tracer->Add(gen_span, g0, NowNs());
    if (!u.has_value()) {
      errors->push_back("attack " + spec.attack + " ended early");
      return false;
    }
    client->Write(spec.name, &*u, 1, true);
    const std::optional<QueryResult> r =
        client->Read(spec.name, t, w / tenants + 1);
    if (!r.has_value()) return false;
    if (sent != nullptr) (*sent)[t].push_back(*u);
    views[t].last_response = r->estimate;
    views[t].has_guarantee = true;
    views[t].guarantee = r->guarantee;
  }
  return true;
}

// Judges every measured answer against the exact truth after the same
// prefix of its tenant's updates, once the measured loop is over.
void JudgeAnswers(const Plan& plan, const std::vector<rs::Stream>& sent,
                  std::vector<Answer> answers, CallLedger* ledger) {
  std::stable_sort(answers.begin(), answers.end(),
                   [](const Answer& a, const Answer& b) {
                     return a.tenant < b.tenant;
                   });
  size_t i = 0;
  while (i < answers.size()) {
    const size_t t = answers[i].tenant;
    const TenantSpec& spec = plan.tenants[t];
    rs::ExactOracle oracle;
    size_t pos = 0;
    for (; i < answers.size() && answers[i].tenant == t; ++i) {
      while (pos < answers[i].position) oracle.Update(sent[t][pos++]);
      if (!WithinBound(answers[i].estimate, TruthOf(spec.truth, oracle),
                       spec.config.eps)) {
        ledger->Fail(FailureKind::kOutOfBound);
      }
    }
  }
}

// Rebuilds the persisted adaptive tenants in a hub of their own by
// replaying their recorded calls (each Update followed by its Query), and
// checks that every rebuilt tenant answers what the game hub answered.
std::unique_ptr<StreamHub> RebuildPersisted(const Plan& plan,
                                            StreamHub* game_hub,
                                            const std::vector<rs::Stream>& sent,
                                            RunResult* result) {
  auto hub = std::make_unique<StreamHub>();
  if (!CreateTenants(hub.get(), plan.tenants, true, 0, &result->errors)) {
    return hub;
  }
  for (size_t t = 0; t < plan.tenants.size(); ++t) {
    const TenantSpec& spec = plan.tenants[t];
    if (!spec.persisted) continue;
    double last = 0.0;
    for (const rs::Update& u : sent[t]) {
      const rs::Status st = hub->Update(spec.name, u);
      rs::Result<QueryResult> q = hub->Query(spec.name);
      if (!st.ok() || !q.ok()) {
        result->errors.push_back("replay into " + spec.name + " failed");
        return hub;
      }
      last = q.value().estimate;
    }
    rs::Result<QueryResult> live = game_hub->Query(spec.name);
    if (!live.ok() || live.value().estimate != last) {
      result->errors.push_back("replayed " + spec.name +
                               " disagrees with the game tenant");
    }
  }
  return hub;
}

TenantSpec Tenant(std::string name, std::string key, rs::RobustConfig c,
                  uint64_t seed, Truth truth) {
  TenantSpec t;
  t.name = std::move(name);
  t.task_key = std::move(key);
  t.config = c;
  t.seed = seed;
  t.truth = truth;
  return t;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kF2Ingest:
      return "f2_ingest";
    case Workload::kF0Fleet:
      return "f0_fleet";
    case Workload::kAdaptiveGame:
      return "adaptive_game";
  }
  return "unknown";
}

std::optional<Workload> WorkloadFromName(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

rs::RobustConfig BaseConfig() {
  rs::RobustConfig c;
  c.eps = 0.4;
  c.delta = 0.05;
  c.stream.n = uint64_t{1} << 20;
  c.stream.m = uint64_t{1} << 24;
  c.stream.max_frequency = uint64_t{1} << 24;
  c.fp.p = 2.0;
  c.engine.shards = 1;
  c.engine.merge_period = 1024;
  c.engine.threads = 1;
  return c;
}

Plan MakePlan(Workload workload, uint64_t seed, double seconds) {
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  const rs::RobustConfig base = BaseConfig();
  switch (workload) {
    case Workload::kF2Ingest: {
      plan.tenants.push_back(Tenant("f2", "fp", base, DeriveSeed(seed, 1),
                                    Truth::kF2));
      plan.batch = 32;
      plan.query_every = 1;
      // A pass of 1100 writes makes 1100 reads, more than the 1000 a p99
      // needs.
      plan.writes = Scaled(40, seconds, 1100);
      plan.passes = 3;
      plan.warmup_writes = 64;
      plan.repeats = 21;
      plan.persist_group = 32;
      break;
    }
    case Workload::kF0Fleet: {
      for (size_t k = 0; k < kFleetTenants; ++k) {
        rs::RobustConfig c = base;
        c.engine.shards = 1 + k % 2;
        char name[16];
        std::snprintf(name, sizeof(name), "fleet-%02zu", k);
        plan.tenants.push_back(
            Tenant(name, "f0", c, DeriveSeed(seed, 100 + k), Truth::kF0));
      }
      plan.batch = 256;
      plan.query_every = 8;
      // A pass of 8800 writes makes 1100 reads, more than the 1000 a p99
      // needs.
      plan.writes = Scaled(300, seconds, 8800);
      plan.passes = 3;
      plan.warmup_writes = 2 * kFleetTenants;
      plan.repeats = 9;
      plan.setup_group = 32;
      break;
    }
    case Workload::kAdaptiveGame: {
      rs::RobustConfig sw = base;
      rs::RobustConfig paths = base;
      paths.method = rs::Method::kComputationPaths;
      rs::RobustConfig dp = base;
      dp.method = rs::Method::kDifferentialPrivacy;
      plan.tenants.push_back(Tenant("f0-switching", "f0", sw,
                                    DeriveSeed(seed, 201), Truth::kF0));
      plan.tenants.back().persisted = true;
      plan.tenants.push_back(Tenant("f0-paths", "f0", paths,
                                    DeriveSeed(seed, 202), Truth::kF0));
      plan.tenants.push_back(
          Tenant("f0-dp", "f0", dp, DeriveSeed(seed, 203), Truth::kF0));
      plan.tenants.push_back(
          Tenant("is-fp", "is_fp", base, DeriveSeed(seed, 204), Truth::kF2));
      plan.tenants.back().persisted = true;
      for (TenantSpec& t : plan.tenants) {
        t.attack = t.truth == Truth::kF0 ? "flip_flood" : "f2_drift";
      }
      plan.batch = 1;
      plan.query_every = 1;
      plan.writes = plan.tenants.size() * Scaled(3350, seconds, 1000);
      plan.passes = 16;
      plan.warmup_writes = plan.tenants.size() * 2000;
      plan.repeats = 21;
      plan.setup_group = 512;
      plan.persist_group = 16;
      break;
    }
  }
  return plan;
}

std::optional<double> TimeFreshBuilds(const Plan& plan) {
  std::vector<StreamHub> hubs(plan.setup_group);
  bool ok = true;
  const int64_t t0 = NowNs();
  for (StreamHub& hub : hubs) {
    ok = CreateTenants(&hub, plan.tenants, false, 0, nullptr) && ok;
  }
  const int64_t t1 = NowNs();
  if (!ok) return std::nullopt;
  return static_cast<double>(t1 - t0) * 1e-9 /
         static_cast<double>(plan.setup_group);
}

RunResult RunWorkload(const Plan& plan, const RunOptions& options) {
  RunResult result;
  Tracer disabled(false);
  Tracer* tracer = options.tracer != nullptr ? options.tracer : &disabled;
  CallLedger ledger;
  const bool game = plan.workload == Workload::kAdaptiveGame;
  const size_t tenants = plan.tenants.size();
  const size_t passes = std::max<size_t>(plan.passes, 1);

  std::optional<SetupTimer> setup;
  if (!options.setup_exe.empty()) {
    setup.emplace(options.setup_exe, plan, &result);
  }

  std::vector<rs::Stream> streams;
  if (!game) {
    streams = IngestStreams(plan, std::max(plan.writes, plan.warmup_writes),
                            tracer);
  }
  // One pass of the measured loop on `client`; only the first pass
  // records what each tenant received.
  const auto run_pass = [&](Client* client, Tracer* pass_tracer,
                            std::vector<rs::Stream>* sent) {
    if (game) {
      GameLoop(client, plan, plan.writes, 0xA77AC, sent, pass_tracer,
               &result.errors);
    } else {
      IngestLoop(client, plan, streams, plan.writes);
    }
  };

  // Each pass runs on the CPU that was quietest when it began, the first
  // after the warm-up on the same CPU. The client stays put for the pass
  // (a timed repeat between two windows moves it, but a repeat leaves the
  // caches cold anyway): a move refills its caches from the L3 the host's
  // other tenants share.
  // Moving before every window cost adaptive_game a fifth to a third of
  // its throughput, by an amount that changed with the host's load.
  MoveToQuietestCpu();

  // Untimed warm-up on a throw-away hub with other estimator seeds.
  {
    StreamHub warm;
    if (CreateTenants(&warm, plan.tenants, false, 0x3A3A, &result.errors)) {
      Client client(&warm, &result, nullptr, nullptr, nullptr, &disabled);
      if (game) {
        GameLoop(&client, plan, plan.warmup_writes, 0x3A3A, nullptr,
                 &disabled, &result.errors);
      } else {
        IngestLoop(&client, plan, streams, plan.warmup_writes);
      }
    }
  }

  // The first pass: counted, traced and judged.
  auto first = std::make_unique<StreamHub>();
  if (!CreateTenants(first.get(), plan.tenants, false, 0, &result.errors)) {
    return result;
  }
  result.sent.assign(tenants, {});
  result.passes.assign(passes, std::vector<Window>(kWindows));
  std::vector<Answer> answers;
  {
    Client client(first.get(), &result, &result.passes[0], &ledger, nullptr,
                  tracer);
    auto measured = tracer->Open("run.measured");
    run_pass(&client, tracer, &result.sent);
    answers = client.answers();
  }
  if (!game) {
    // What each tenant received: its stream up to the last write.
    for (size_t t = 0; t < tenants; ++t) {
      const size_t own = (plan.writes + tenants - 1 - t) / tenants;
      result.sent[t].assign(streams[t].begin(),
                            streams[t].begin() + own * plan.batch);
    }
  }
  JudgeAnswers(plan, result.sent, answers, &ledger);

  for (const rs::runtime::StreamInfo& info : first->ListStreams()) {
    result.counts.flips += info.guarantee.flips_spent;
    result.counts.footprint_bytes += info.memory_footprint_bytes;
  }

  std::unique_ptr<StreamHub> persisted;
  std::optional<PersistenceTimer> timer;
  if (options.persist) {
    if (game) {
      // The paths and dp tenants have no serialization path, so the
      // game's persistence is measured on its snapshot-capable tenants,
      // rebuilt bit-exactly in a hub of their own.
      persisted = RebuildPersisted(plan, first.get(), result.sent, &result);
      first.reset();
    }
    timer.emplace(persisted != nullptr ? persisted.get() : first.get(), plan,
                  &result, &ledger, tracer);
  }

  // The later passes: timed only, each answer checked against the first
  // pass's, with the set-up and persistence repeats spread over their
  // windows.
  const std::vector<bool> setup_slots = SpreadSlots(passes, kSetupRepeats);
  const std::vector<bool> persist_slots = SpreadSlots(passes, plan.repeats);
  for (size_t p = 1; p < passes && result.correct(); ++p) {
    MoveToQuietestCpu();
    StreamHub hub;
    if (!CreateTenants(&hub, plan.tenants, false, 0, &result.errors)) break;
    Client client(&hub, &result, &result.passes[p], nullptr, &answers,
                  &disabled);
    client.set_between_windows([&, p](size_t w) {
      const size_t slot = (p - 1) * kWindows + w;
      if (setup.has_value() && !setup_slots.empty() && setup_slots[slot]) {
        setup->Repeat();
      }
      if (timer.has_value() && !persist_slots.empty() &&
          persist_slots[slot]) {
        timer->Repeat();
      }
    });
    run_pass(&client, &disabled, nullptr);
  }
  if (setup.has_value()) {
    while (result.correct() && setup->timed_repeats() < kSetupRepeats) {
      setup->Repeat();
    }
    setup->Finish();
  }
  if (timer.has_value()) {
    while (result.correct() && timer->timed_repeats() < plan.repeats) {
      timer->Repeat();
    }
    timer->Finish();
  }

  result.counts.attempted = ledger.attempted();
  result.counts.failed = ledger.failed();
  for (size_t k = 0; k < kFailureKinds; ++k) {
    result.counts.failed_by_kind[k] =
        ledger.failed(static_cast<FailureKind>(k));
  }
  return result;
}

double RunResult::UpdatesPerSecond() const {
  uint64_t updates = 0;
  double seconds = 0.0;
  const size_t windows = passes.empty() ? 0 : passes.front().size();
  for (size_t w = 0; w < windows; ++w) {
    const Window* fastest = nullptr;
    for (const std::vector<Window>& pass : passes) {
      const Window& candidate = pass[w];
      if (candidate.hub_seconds <= 0.0) continue;
      if (fastest == nullptr ||
          candidate.hub_seconds < fastest->hub_seconds) {
        fastest = &candidate;
      }
    }
    if (fastest != nullptr) {
      updates += fastest->updates;
      seconds += fastest->hub_seconds;
    }
  }
  return seconds > 0.0 ? static_cast<double>(updates) / seconds : 0.0;
}

rs::Stream HubOrder(const Plan& plan, const std::vector<rs::Stream>& sent,
                    size_t limit) {
  rs::Stream out;
  const size_t tenants = sent.size();
  for (size_t w = 0; out.size() < limit; ++w) {
    const size_t t = w % tenants;
    const size_t off = (w / tenants) * plan.batch;
    if (off >= sent[t].size()) break;
    for (size_t i = 0; i < plan.batch && out.size() < limit; ++i) {
      out.push_back(sent[t][off + i]);
    }
  }
  return out;
}

}  // namespace perfbench
