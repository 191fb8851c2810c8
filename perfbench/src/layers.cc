#include "layers.h"

#include <algorithm>
#include <memory>

#include "rs/engine/sharded.h"
#include "rs/hash/kwise.h"
#include "rs/hash/tabulation.h"
#include "rs/runtime/stream_hub.h"
#include "rs/sketch/fast_f0.h"
#include "rs/sketch/kmv_f0.h"
#include "rs/sketch/pstable_fp.h"
#include "rs/util/check.h"

namespace perfbench {

namespace {

// Replay lengths. Cheap kernels loop over the input many times; the dense
// p-stable paths (one update touches every counter of every copy) get a
// shorter prefix so the traced run stays well inside its time limit.
constexpr size_t kHashCalls = size_t{1} << 20;
constexpr size_t kEstimateCalls = size_t{1} << 16;
constexpr size_t kF0Updates = size_t{1} << 15;
constexpr size_t kFpUpdates = 2048;
constexpr size_t kFpEstimateCalls = 256;
constexpr size_t kQueryCalls = 4096;
constexpr size_t kGateCalls = 64;
constexpr size_t kIoUpdates = 4096;  // Per tenant: fills every KMV heap.
constexpr size_t kRepeats = 5;
constexpr uint64_t kReplaySeed = 0x5245504C4159ULL;  // "REPLAY"

// Keeps results of timed pure functions observable.
volatile uint64_t g_sink = 0;
volatile double g_fsink = 0.0;

constexpr double kMiB = 1024.0 * 1024.0;

// Feeds `ups` to `est` in calls of `batch` (single Update calls when
// batch == 1), under one span per call.
void Feed(rs::Estimator* est, const rs::Stream& ups, size_t batch,
          Tracer* tracer, uint32_t span) {
  for (size_t i = 0; i < ups.size(); i += batch) {
    const size_t n = std::min(batch, ups.size() - i);
    auto s = tracer->Open(span, n);
    if (batch == 1) {
      est->Update(ups[i]);
    } else {
      est->UpdateBatch(&ups[i], n);
    }
  }
}

rs::Stream Prefix(const rs::Stream& s, size_t n) {
  return rs::Stream(s.begin(), s.begin() + std::min(n, s.size()));
}

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

bool IsFp(const TenantSpec& t) { return t.task_key == "fp"; }

bool EngineHosted(const TenantSpec& t) {
  return (t.task_key == "f0" || t.task_key == "fp") &&
         t.config.method == rs::Method::kSketchSwitching;
}

rs::RobustConfig EngineConfig(const TenantSpec& t) {
  rs::RobustConfig c = t.config;
  c.engine.task = IsFp(t) ? rs::Task::kFp : rs::Task::kF0;
  return c;
}

std::unique_ptr<rs::RobustEstimator> MustMake(
    rs::Result<std::unique_ptr<rs::RobustEstimator>> r) {
  RS_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  return std::move(r).value();
}

}  // namespace

std::vector<Metric> ReplayLayers(const Plan& plan, const RunResult& run,
                                 Tracer* tracer) {
  std::vector<Metric> out;
  auto emit = [&out](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };
  auto ns = [tracer](const char* span) { return tracer->NsPerCount(span); };

  const rs::RobustConfig base = BaseConfig();
  const rs::Stream input = HubOrder(plan, run.sent, kF0Updates);
  RS_CHECK(!input.empty());
  const rs::Stream& f0_in = input;
  const rs::Stream fp_in = Prefix(input, kFpUpdates);
  // Batched rows use the workload's batch; the adaptive workload writes
  // singly, so its batched rows use the fleet's 256.
  const size_t batch = plan.batch > 1 ? plan.batch : 256;
  // The workload's first tenant is the one the runtime rows host and
  // whose task (f0 or fp) the gate and ratio rows follow.
  const TenantSpec& primary = plan.tenants.front();

  // hash: the 8-wise polynomial (KMV, engine routing) and simple
  // tabulation (p-stable), over the input's items.
  {
    auto layer = tracer->Open("layer.hash");
    rs::KWiseHash kwise(8, kReplaySeed);
    rs::TabulationHash tab(kReplaySeed);
    uint64_t acc = 0;
    {
      auto s = tracer->Open("hash.kwise8", kHashCalls);
      for (size_t i = 0; i < kHashCalls; ++i) {
        acc ^= kwise(input[i % input.size()].item);
      }
    }
    {
      auto s = tracer->Open("hash.tabulation", kHashCalls);
      for (size_t i = 0; i < kHashCalls; ++i) {
        acc ^= tab(input[i % input.size()].item);
      }
    }
    g_sink = acc;
  }

  // sketch: one base instance, sized as the robust wrappers size theirs.
  {
    auto layer = tracer->Open("layer.sketch");
    const double eps0 = base.eps / 4.0;
    rs::KmvF0 kmv(rs::KmvF0::Config{rs::KmvF0::KForEpsilon(eps0)},
                  kReplaySeed);
    Feed(&kmv, f0_in, 1, tracer, tracer->Intern("sketch.kmv_update"));
    double acc = 0.0;
    {
      auto s = tracer->Open("sketch.kmv_estimate", kEstimateCalls);
      for (size_t i = 0; i < kEstimateCalls; ++i) acc += kmv.Estimate();
    }
    rs::PStableFp::Config pc;
    pc.p = 2.0;
    pc.eps = eps0;
    rs::PStableFp pstable(pc, kReplaySeed);
    Feed(&pstable, fp_in, 1, tracer, tracer->Intern("sketch.pstable_update"));
    {
      auto s = tracer->Open("sketch.pstable_estimate", kFpEstimateCalls);
      for (size_t i = 0; i < kFpEstimateCalls; ++i) acc += pstable.Estimate();
    }
    rs::FastF0::Config fc;
    fc.eps = eps0;
    fc.delta = base.delta;
    fc.n = base.stream.n;
    rs::FastF0 fast(fc, kReplaySeed);
    Feed(&fast, f0_in, 1, tracer, tracer->Intern("sketch.fastf0_update"));
    g_fsink = acc;
  }

  // core: the facade's wrappers, no engine.
  size_t core_flips = 0;
  size_t core_retired = 0;
  double f0_footprint = 0.0;
  double fp_footprint = 0.0;
  {
    auto layer = tracer->Open("layer.core");
    rs::RobustConfig paths_cfg = base;
    paths_cfg.method = rs::Method::kComputationPaths;
    auto f0_ring = MustMake(rs::TryMakeRobust(rs::Task::kF0, base,
                                              kReplaySeed));
    auto fp_ring = MustMake(rs::TryMakeRobust(rs::Task::kFp, base,
                                              kReplaySeed));
    auto f0_single = MustMake(rs::TryMakeRobust(rs::Task::kF0, base,
                                                kReplaySeed));
    auto f0_paths = MustMake(rs::TryMakeRobust(rs::Task::kF0, paths_cfg,
                                               kReplaySeed));
    Feed(f0_ring.get(), f0_in, batch, tracer,
         tracer->Intern("core.f0_ring_batch"));
    Feed(fp_ring.get(), fp_in, batch, tracer,
         tracer->Intern("core.fp_ring_batch"));
    Feed(f0_single.get(), f0_in, 1, tracer,
         tracer->Intern("core.f0_ring_single"));
    Feed(f0_paths.get(), f0_in, 1, tracer,
         tracer->Intern("core.f0_paths_single"));
    for (const auto* est : {f0_ring.get(), fp_ring.get()}) {
      const rs::GuaranteeStatus g = est->GuaranteeStatus();
      core_flips += g.flips_spent;
      core_retired += g.copies_retired;
    }
    f0_footprint = static_cast<double>(f0_ring->MemoryFootprintBytes());
    fp_footprint = static_cast<double>(fp_ring->MemoryFootprintBytes());
  }

  // dp and sampling: the other two copy strategies, per update.
  size_t dp_flips = 0;
  {
    auto layer = tracer->Open("layer.dp");
    rs::RobustConfig dp_cfg = base;
    dp_cfg.method = rs::Method::kDifferentialPrivacy;
    auto dp = MustMake(rs::TryMakeRobust(rs::Task::kF0, dp_cfg,
                                         kReplaySeed));
    Feed(dp.get(), f0_in, 1, tracer, tracer->Intern("dp.f0_single"));
    dp_flips = dp->output_changes();
  }
  {
    auto layer = tracer->Open("layer.sampling");
    auto is_fp = MustMake(rs::TryMakeRobust("is_fp", base, kReplaySeed));
    Feed(is_fp.get(), f0_in, 1, tracer,
         tracer->Intern("sampling.is_fp_single"));
  }

  // engine: ShardedRobust called directly, S = 1 and S = 2.
  double flips_per_gate = 0.0;
  {
    auto layer = tracer->Open("layer.engine");
    rs::RobustConfig f0_cfg = base;
    f0_cfg.engine.task = rs::Task::kF0;
    rs::RobustConfig f0_s2_cfg = f0_cfg;
    f0_s2_cfg.engine.shards = 2;
    rs::RobustConfig fp_cfg = base;
    fp_cfg.engine.task = rs::Task::kFp;
    auto f0 = MustMake(rs::TryMakeShardedRobust(f0_cfg, kReplaySeed));
    auto f0_s2 = MustMake(rs::TryMakeShardedRobust(f0_s2_cfg, kReplaySeed));
    auto fp = MustMake(rs::TryMakeShardedRobust(fp_cfg, kReplaySeed));
    Feed(f0.get(), f0_in, batch, tracer, tracer->Intern("engine.f0_batch"));
    Feed(f0_s2.get(), f0_in, batch, tracer,
         tracer->Intern("engine.f0_s2_batch"));
    Feed(fp.get(), fp_in, batch, tracer, tracer->Intern("engine.fp_batch"));

    // Useful gates: published output changes over the gates the
    // engines' own cadence ran (one per merge_period updates).
    size_t flips = 0;
    size_t gates = 0;
    for (const auto* e : {f0.get(), f0_s2.get(), fp.get()}) {
      flips += e->output_changes();
    }
    gates += 2 * (f0_in.size() / base.engine.merge_period);
    gates += fp_in.size() / base.engine.merge_period;
    flips_per_gate = Ratio(static_cast<double>(flips),
                           static_cast<double>(gates));

    // Gate cost on the engine hosting the primary tenant's task.
    auto* gated = static_cast<rs::ShardedRobust*>(IsFp(primary) ? fp.get()
                                                                : f0.get());
    auto s = tracer->Open("engine.gate", kGateCalls);
    for (size_t i = 0; i < kGateCalls; ++i) gated->ForcePublish();
  }

  // runtime: a hub with the primary tenant alone.
  {
    auto layer = tracer->Open("layer.runtime");
    const rs::Stream& prim_in = IsFp(primary) ? fp_in : f0_in;
    rs::runtime::StreamHub hub;
    RS_CHECK(hub.CreateStream("batch", primary.task_key, primary.config,
                              kReplaySeed)
                 .ok());
    RS_CHECK(hub.CreateStream("single", primary.task_key, primary.config,
                              kReplaySeed)
                 .ok());
    const uint32_t batch_span = tracer->Intern("runtime.batch");
    for (size_t i = 0; i < prim_in.size(); i += batch) {
      const size_t n = std::min(batch, prim_in.size() - i);
      auto s = tracer->Open(batch_span, n);
      RS_CHECK(hub.UpdateBatch("batch", &prim_in[i], n).ok());
    }
    {
      auto s = tracer->Open("runtime.single", prim_in.size());
      for (const rs::Update& u : prim_in) {
        RS_CHECK(hub.Update("single", u).ok());
      }
    }
    double acc = 0.0;
    {
      auto s = tracer->Open("runtime.query", kQueryCalls);
      for (size_t i = 0; i < kQueryCalls; ++i) {
        acc += hub.Query("batch").value().estimate;
      }
    }
    g_fsink = acc;

    // Creating the workload's tenants in a fresh hub, after a warm-up.
    const uint32_t create_span = tracer->Intern("runtime.create");
    for (size_t r = 0; r <= kRepeats; ++r) {
      rs::runtime::StreamHub fresh;
      const int64_t t0 = NowNs();
      for (const TenantSpec& t : plan.tenants) {
        RS_CHECK(fresh.CreateStream(t.name, t.task_key, t.config, t.seed)
                     .ok());
      }
      const int64_t t1 = NowNs();
      if (r > 0) tracer->Add(create_span, t0, t1, plan.tenants.size());
    }
  }

  // io: Sum of ShardedRobust::Snapshot over the workload's engine-hosted
  // tenants, against the hub envelope of the same tenants in the same
  // state (each fed the same prefix of its own recorded input).
  {
    auto layer = tracer->Open("layer.io");
    rs::runtime::StreamHub hub;
    std::vector<std::unique_ptr<rs::RobustEstimator>> engines;
    for (size_t t = 0; t < plan.tenants.size(); ++t) {
      const TenantSpec& spec = plan.tenants[t];
      if (!EngineHosted(spec)) continue;
      const rs::Stream prefix =
          Prefix(run.sent[t], IsFp(spec) ? kFpUpdates : kIoUpdates);
      engines.push_back(
          MustMake(rs::TryMakeShardedRobust(EngineConfig(spec), spec.seed)));
      RS_CHECK(hub.CreateStream(spec.name, spec.task_key, spec.config,
                                spec.seed)
                   .ok());
      for (size_t i = 0; i < prefix.size(); i += batch) {
        const size_t n = std::min(batch, prefix.size() - i);
        engines.back()->UpdateBatch(&prefix[i], n);
        RS_CHECK(hub.UpdateBatch(spec.name, &prefix[i], n).ok());
      }
    }
    const uint32_t engine_span = tracer->Intern("io.engine_snapshot");
    const uint32_t hub_span = tracer->Intern("io.hub_snapshot");
    for (size_t r = 0; r <= kRepeats; ++r) {
      size_t bytes = 0;
      const int64_t t0 = NowNs();
      for (const auto& e : engines) {
        std::string image;
        static_cast<const rs::ShardedRobust*>(e.get())->Snapshot(&image);
        bytes += image.size();
      }
      const int64_t t1 = NowNs();
      std::string envelope;
      RS_CHECK(hub.Snapshot(&envelope).ok());
      const int64_t t2 = NowNs();
      if (r > 0) {
        tracer->Add(engine_span, t0, t1, bytes);
        tracer->Add(hub_span, t1, t2, envelope.size());
      }
    }
  }

  const double kmv_ns = ns("sketch.kmv_update");
  const double pstable_ns = ns("sketch.pstable_update");
  const double f0_ring_ns = ns("core.f0_ring_batch");
  const double fp_ring_ns = ns("core.fp_ring_batch");
  const double f0_engine_ns = ns("engine.f0_batch");
  const double fp_engine_ns = ns("engine.fp_batch");
  const double engine_primary_ns = IsFp(primary) ? fp_engine_ns : f0_engine_ns;
  const double core_primary_ns = IsFp(primary) ? fp_ring_ns : f0_ring_ns;

  emit("hash.kwise8_ns", ns("hash.kwise8"), "ns");
  emit("hash.tabulation_ns", ns("hash.tabulation"), "ns");
  emit("sketch.kmv_update_ns", kmv_ns, "ns");
  emit("sketch.kmv_estimate_ns", ns("sketch.kmv_estimate"), "ns");
  emit("sketch.pstable_update_ns", pstable_ns, "ns");
  emit("sketch.pstable_estimate_ns", ns("sketch.pstable_estimate"), "ns");
  emit("sketch.fastf0_update_ns", ns("sketch.fastf0_update"), "ns");
  emit("core.f0_ring_batch_ns", f0_ring_ns, "ns");
  emit("core.fp_ring_batch_ns", fp_ring_ns, "ns");
  emit("core.f0_ring_single_ns", ns("core.f0_ring_single"), "ns");
  emit("core.f0_paths_single_ns", ns("core.f0_paths_single"), "ns");
  emit("core.f0_ring_over_kmv", Ratio(f0_ring_ns, kmv_ns), "ratio");
  emit("core.fp_ring_over_pstable", Ratio(fp_ring_ns, pstable_ns), "ratio");
  emit("core.flips", static_cast<double>(core_flips), "count");
  emit("core.copies_retired", static_cast<double>(core_retired), "count");
  emit("core.f0_footprint_mib", f0_footprint / kMiB, "MiB");
  emit("core.fp_footprint_mib", fp_footprint / kMiB, "MiB");
  emit("dp.f0_single_ns", ns("dp.f0_single"), "ns");
  emit("dp.flips", static_cast<double>(dp_flips), "count");
  emit("sampling.is_fp_single_ns", ns("sampling.is_fp_single"), "ns");
  emit("engine.f0_batch_ns", f0_engine_ns, "ns");
  emit("engine.f0_s2_batch_ns", ns("engine.f0_s2_batch"), "ns");
  emit("engine.fp_batch_ns", fp_engine_ns, "ns");
  emit("engine.gate_us", ns("engine.gate") * 1e-3, "us");
  emit("engine.flips_per_gate", flips_per_gate, "ratio");
  emit("engine.over_core", Ratio(engine_primary_ns, core_primary_ns),
       "ratio");
  emit("engine.s2_over_s1",
       Ratio(ns("engine.f0_s2_batch"), f0_engine_ns), "ratio");
  emit("runtime.batch_ns", ns("runtime.batch"), "ns");
  emit("runtime.single_ns", ns("runtime.single"), "ns");
  emit("runtime.query_ns", ns("runtime.query"), "ns");
  emit("runtime.over_engine", Ratio(ns("runtime.batch"), engine_primary_ns),
       "ratio");
  emit("runtime.create_us", ns("runtime.create") * 1e-3, "us");
  // Bytes per nanosecond -> MiB per second.
  const double bytes_per_ns_to_mib_s = 1e9 / kMiB;
  emit("io.snapshot_mib_per_s",
       Ratio(1.0, ns("hub.snapshot")) * bytes_per_ns_to_mib_s, "MiB/s");
  emit("io.restore_mib_per_s",
       Ratio(1.0, ns("hub.restore")) * bytes_per_ns_to_mib_s, "MiB/s");
  const Tracer::Totals engine_snap = tracer->TotalsFor("io.engine_snapshot");
  const Tracer::Totals hub_snap = tracer->TotalsFor("io.hub_snapshot");
  emit("io.engine_snapshot_ms",
       engine_snap.spans == 0 ? 0.0
                              : static_cast<double>(engine_snap.ns) * 1e-6 /
                                    static_cast<double>(engine_snap.spans),
       "ms");
  emit("io.envelope_over_engine",
       Ratio(static_cast<double>(hub_snap.ns),
             static_cast<double>(engine_snap.ns)),
       "ratio");
  emit("adversary.next_update_ns", ns("load.next_update"), "ns");
  return out;
}

}  // namespace perfbench
