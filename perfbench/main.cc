// easeml_perfbench: the repository benchmark's measuring program.
//
//   easeml_perfbench --workload <fleet_greedy|paper_k179|service_durable>
//                    --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Runs one workload for at least --seconds of serving time in whole
// episodes, checks its outputs, prints the operation ledger and notes, and
// ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with tracing on every other episode and reports the per-layer
// metrics. Self-test switches: --tiny (small sizes), --expect-digest <hex>,
// --fault <flip-recovered-byte|failing-call>.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"decisions_per_s", "1/s"},
      {"decision_us_p50", "us"},
      {"peak_rss_mb", "MiB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"platform.submit_us_p50", "us"},
      {"platform.step_self_us_p50", "us"},
      {"platform.infer_us_p50", "us"},
      {"platform.infer_us_p99", "us"},
      {"platform.admit_us_p50", "us"},
      {"core.next_us_p50", "us"},
      {"core.next_us_p99", "us"},
      {"core.report_us_p50", "us"},
      {"core.report_us_p99", "us"},
      {"core.add_tenant_us_p50", "us"},
      {"scheduler.pick_us_p50", "us"},
      {"scheduler.pick_us_p99", "us"},
      {"scheduler.outcome_us_p50", "us"},
      {"bandit.select_us_p50", "us"},
      {"gp.observe_us_p50", "us"},
      {"gp.observe_us_p99", "us"},
      {"gp.marginals_us_p50", "us"},
      {"gp.observe_ns_per_t2", "ns"},
      {"gp.belief_mb", "MiB"},
      {"linalg.chol_append_us_t64", "us"},
      {"linalg.chol_append_us_t179", "us"},
      {"shard.worker_cpu_s", "s"},
      {"shard.worker_imbalance", "ratio"},
      {"shard.driver_wait_us_p50", "us"},
      {"shard.add_tenant_us_p50", "us"},
      {"wal.append_us_p50", "us"},
      {"wal.append_us_p99", "us"},
      {"wal.records_per_decision", "count"},
      {"wal.bytes_per_decision", "B"},
      {"wal.writes_per_1k_decisions", "count"},
      {"wal.fsyncs", "count"},
      {"wal.flush_us_p99", "us"},
      {"wal.checkpoint_ms", "ms"},
      {"wal.checkpoint_bytes", "B"},
      {"wal.replayed_records", "count"},
      {"wal.replay_us_per_record", "us"},
      {"wal.recovery_s", "s"},
      {"obs.hook_us_p50", "us"},
      {"obs.hook_us_p99", "us"},
      {"obs.hooks_per_decision", "count"},
      {"obs.snapshot_us_p50", "us"},
      {"host.ref_loop_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.unattributed_pct", "%"},
      {"trace.gp_bandit_share_pct", "%"},
  };
  return kSpecs;
}

/// Layers only the service workload runs: the engine workloads report their
/// metrics as 0, which is what they measure (no such work happens there).
void ZeroServiceOnlyLayers(MetricSink* sink) {
  for (const MetricSpec& m : PerLayerMetrics()) {
    const std::string name = m.name;
    const bool service_only = name.rfind("platform.", 0) == 0 ||
                              name.rfind("shard.", 0) == 0 ||
                              name.rfind("wal.", 0) == 0 ||
                              name.rfind("obs.", 0) == 0;
    if (service_only && !sink->Has(name)) sink->Set(name, 0.0, m.unit);
  }
}

/// Keeps exactly the metrics of `specs`; names a missing one or a unit
/// mismatch in `problems`.
MetricSink Select(const MetricSink& all, const std::vector<MetricSpec>& specs,
                  std::vector<std::string>* problems) {
  MetricSink out;
  for (const MetricSpec& m : specs) {
    auto it = all.values().find(m.name);
    if (it == all.values().end()) {
      problems->push_back(std::string("metric not measured: ") + m.name);
    } else if (it->second.second != m.unit) {
      problems->push_back(std::string("metric ") + m.name + " has unit " +
                          it->second.second + ", expected " + m.unit);
    } else {
      out.Set(m.name, it->second.first, m.unit);
    }
  }
  return out;
}

/// Pins the process (and every thread it starts later, such as the shard
/// workers) to the highest-numbered CPU it may run on. On the virtual
/// machines this benchmark was sized on, a wake-up across CPUs stalls for
/// 1-25 ms whenever the hypervisor is busy, and the 2-shard engine hands off
/// to a worker about twice per decision; on one CPU a handoff is a local
/// context switch. At D=1 the client waits on the worker at every handoff,
/// so no parallelism of the decision path is lost. Returns the CPU, or -1
/// when the mask cannot be read or set.
int PinToOneCpu(int* allowed) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  *allowed = CPU_COUNT(&set);
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "easeml_perfbench: %s\nusage: easeml_perfbench --workload "
               "<fleet_greedy|paper_k179|service_durable> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> [--tiny] "
               "[--expect-digest <hex>] [--fault <flip-recovered-byte|"
               "failing-call>]\n",
               msg);
  return 2;
}

}  // namespace

std::string PinnedDigest(const std::string& workload, bool tiny) {
  // Decision-trace digests of seed 1 (kDefaultSeed). A change that alters
  // any pick of these campaigns changes them; such a change must say why.
  struct Pin {
    const char* workload;
    bool tiny;
    const char* digest;
  };
  static const Pin kPins[] = {
      {"fleet_greedy", false, "bb3b8f5d2c4b3bcb"},
      {"fleet_greedy", true, "c43be35d0cbda119"},
      {"paper_k179", false, "66e61618ed07bd67"},
      {"paper_k179", true, "4e9c108f2428d9db"},
      {"service_durable", false, "7713d8e51cb6877e"},
      {"service_durable", true, "ffaf927efb147b51"},
  };
  for (const Pin& p : kPins) {
    if (workload == p.workload && tiny == p.tiny) return p.digest;
  }
  return "";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string expect_digest;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(Usage("bad arguments"));
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value("--workload");
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value("--seed"), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value("--seconds"));
      have_seconds = true;
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value("--trace"), "0") != 0;
      have_trace = true;
    } else if (arg == "--work-dir") {
      config.work_dir = value("--work-dir");
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--expect-digest") {
      expect_digest = value("--expect-digest");
    } else if (arg == "--fault") {
      const std::string fault = value("--fault");
      if (fault == "flip-recovered-byte") {
        config.flip_recovered_byte = true;
      } else if (fault == "failing-call") {
        config.inject_failing_call = true;
      } else {
        return Usage(("unknown fault " + fault).c_str());
      }
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      config.work_dir.empty()) {
    return Usage("--workload, --seed, --seconds, --trace and --work-dir are "
                 "required");
  }
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Usage(("cannot create work dir: " + ec.message()).c_str());

  int allowed = 0;
  const int cpu = PinToOneCpu(&allowed);

  RunResult result;
  if (config.workload == "fleet_greedy") {
    RunFleetGreedy(config, &result);
  } else if (config.workload == "paper_k179") {
    RunPaperK179(config, &result);
  } else if (config.workload == "service_durable") {
    RunServiceDurable(config, &result);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  // --- Correctness gate -----------------------------------------------------
  std::string pinned = expect_digest;
  if (pinned.empty() && config.seed == kDefaultSeed) {
    pinned = PinnedDigest(config.workload, config.tiny);
  }
  if (!pinned.empty() && result.digest != pinned) {
    result.mismatches.push_back("decision-trace digest " + result.digest +
                                " != pinned " + pinned);
  }
  std::printf("workload %s seed %llu seconds %g trace %d episodes %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, result.episodes);
  std::printf("cpu %d of %d allowed (wall-clock timings, steady_clock)\n",
              cpu, allowed);
  std::printf("digest %s pinned %s\n", result.digest.c_str(),
              pinned.empty() ? "none" : pinned.c_str());
  for (const auto& [op, c] : result.ledger.ops()) {
    std::printf("op %-18s attempted %10lld failed %4lld refused %6lld\n",
                op.c_str(), static_cast<long long>(c.attempted),
                static_cast<long long>(c.failed),
                static_cast<long long>(c.refused));
  }
  for (const std::string& f : result.ledger.first_failures()) {
    std::printf("failure %s\n", f.c_str());
  }
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());

  MetricSink reported;
  std::vector<std::string> problems;
  if (config.trace) {
    if (config.workload != "service_durable") {
      ZeroServiceOnlyLayers(&result.per_layer);
    }
    reported = Select(result.per_layer, PerLayerMetrics(), &problems);
  } else {
    reported = Select(result.end_to_end, EndToEndMetrics(), &problems);
  }
  if (result.mismatches.empty()) {
    for (const auto& [name, vu] : reported.values()) {
      std::printf("metric %-30s %.6f %s\n", name.c_str(), vu.first,
                  vu.second.c_str());
      if (!std::isfinite(vu.first)) {
        problems.push_back("metric " + name + " is not finite");
      }
    }
  }
  for (const std::string& p : problems) result.mismatches.push_back(p);
  const bool correct = result.mismatches.empty();
  for (const std::string& m : result.mismatches) {
    std::fprintf(stderr, "MISMATCH: %s\n", m.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, result.ledger.attempted())),
              static_cast<long long>(result.ledger.failed()),
              correct ? reported.ToJson().c_str() : "{}");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
