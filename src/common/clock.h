#ifndef EASEML_COMMON_CLOCK_H_
#define EASEML_COMMON_CLOCK_H_

#include <ctime>

namespace easeml {

/// The one home for raw clock reads. Everything outside `common/` that needs
/// time goes through these two functions (enforced by the `raw-clock` lint
/// rule), so the choice of clock — and any future virtualization for
/// deterministic replay — lives in exactly one place.
///
/// Two clocks, two jobs:
///  - `MonotonicSeconds()` (CLOCK_MONOTONIC) measures wall time, and it
///    times the serving path: the engines' observer hooks, drain stalls,
///    makespans, refresh intervals. Linux answers it in the vDSO without
///    entering the kernel (about 43 ns a read on a shared 4-vCPU Xeon VM),
///    cheap enough for hooks that run on every decision. It advances while
///    a thread sleeps or is preempted, so a span includes time off the CPU.
///  - `ThreadCpuSeconds()` (CLOCK_THREAD_CPUTIME_ID) measures CPU time
///    consumed by the *calling thread only*: the shard workers' accounting
///    (`ShardCpuSeconds`) and bench latencies. Immune to scheduling noise
///    on oversubscribed hosts, but each read is a real system call (about
///    315 ns on the same VM), and it is meaningless across threads — never
///    difference readings taken on different threads. The `thread-cpu-clock`
///    lint rule keeps it out of `src/` outside `common/`; a read there needs
///    a reasoned suppression.

/// Seconds on the monotonic wall clock. Only differences are meaningful.
inline double MonotonicSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds consumed by the calling thread. Only differences taken on
/// the same thread are meaningful.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace easeml

#endif  // EASEML_COMMON_CLOCK_H_
