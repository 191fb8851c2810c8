// cpu.h — keeping the closed-loop client on an uncontended CPU.
//
// On a shared host the other tenants of a physical core slow every
// workload on it by up to 3x, for seconds at a time, and which of the
// process's CPUs they load moves around. Before each measured pass and
// each timed repeat the client probes every CPU it may run on with a
// short fixed loop and moves to the fastest, so a run measures the
// program rather than its neighbours.

#ifndef PERFBENCH_CPU_H_
#define PERFBENCH_CPU_H_

namespace perfbench {

// Pins the calling thread to the CPU, among those the process started
// with, on which the probe ran fastest. A no-op where affinity cannot be
// set.
void MoveToQuietestCpu();

}  // namespace perfbench

#endif  // PERFBENCH_CPU_H_
