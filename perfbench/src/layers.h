// layers.h — the traced per-layer replay.
//
// One update passes through hash -> base sketch -> copies (core wrappers,
// dp, sampling) -> sharded engine -> StreamHub -> wire (io). The replay
// feeds a workload's recorded update sequence, in the order the hub
// received it, into each layer's public API on its own, with a span
// around every run of calls. Each layer sees the same input as the layer
// below it, so the ratio of their per-update costs is the layer's own
// overhead.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Replays `run` (made from `plan` with tracing on) layer by layer under
// `tracer` and returns every per-layer metric except trace.overhead_share.
std::vector<Metric> ReplayLayers(const Plan& plan, const RunResult& run,
                                 Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
