#include "cpu.h"

#include <sched.h>

#include <cstdint>
#include <vector>

#include "trace.h"

namespace perfbench {

namespace {

// The CPUs the process was allowed at its first call.
const std::vector<int>& StartingCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

// Keeps the probe's loads observable.
volatile uint64_t g_probe_sink = 0;

bool PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

// About a tenth of a millisecond of dependent loads over 256 KiB: it
// slows down with the core's caches and its sibling's load alike, and is
// small enough not to flush the client's own working set.
int64_t ProbeNs() {
  constexpr size_t kWords = size_t{1} << 15;
  static std::vector<uint64_t> buffer = [] {
    std::vector<uint64_t> b(kWords);
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (uint64_t& w : b) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = x;
    }
    return b;
  }();
  const int64_t t0 = NowNs();
  uint64_t i = 1;
  for (int step = 0; step < 10000; ++step) {
    i = buffer[(i ^ static_cast<uint64_t>(step)) & (kWords - 1)];
  }
  const int64_t t1 = NowNs();
  g_probe_sink = i;
  return t1 - t0;
}

}  // namespace

void MoveToQuietestCpu() {
  const std::vector<int>& cpus = StartingCpus();
  if (cpus.size() < 2) return;
  int best = -1;
  int64_t best_ns = 0;
  for (const int c : cpus) {
    if (!PinTo(c)) return;
    ProbeNs();  // Warms this core's caches with the probe's buffer.
    const int64_t ns = ProbeNs();
    if (best < 0 || ns < best_ns) {
      best = c;
      best_ns = ns;
    }
  }
  PinTo(best);
}

}  // namespace perfbench
