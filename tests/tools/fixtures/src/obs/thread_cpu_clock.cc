// Fixture: thread-CPU clock reads in src/ outside common/
// (thread-cpu-clock), including one reasoned suppression that must be
// honored.
#include "common/clock.h"

double HookSpanUs(double start) {
  return (easeml::ThreadCpuSeconds() - start) * 1e6;
}

double WorkerCpuSeconds() {
  // easeml-lint: allow(thread-cpu-clock) fixture proves reasoned suppressions work
  return easeml::ThreadCpuSeconds();
}
