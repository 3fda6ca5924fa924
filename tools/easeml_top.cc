// easeml_top: live terminal monitor for an ease.ml fleet, driven entirely
// through the observability plane — it proves (and demos) that a dashboard
// needs neither the selector lock nor any engine accessor.
//
// The tool runs a synthetic selection campaign in-process: a driver thread
// owns the selector (Next/Report with deterministic SplitMix64 accuracies)
// while the display thread consumes ONLY `obs::SnapshotPlane::Snapshot()`
// and the `obs::Registry` exporters — the exact interference-free read path
// bench/analytics_interference measures.
//
// Usage:
//   easeml_top [--tenants=96] [--models=8] [--shards=4] [--devices=4]
//              [--scheduler=GREEDY] [--interval-ms=500]
//              [--publish-interval=32] [--once] [--export=text|json]
//
// --once renders a single frame after the campaign finishes (for scripts
// and the ctest smoke gate); --export selects the metrics block's format.
// Exit status: 0 on success, 1 on any setup/campaign error.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/fleet_observer.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"

namespace {

using easeml::core::TenantObservation;

struct TopOptions {
  int tenants = 96;
  int models = 8;
  int shards = 4;
  int devices = 4;
  std::string scheduler = "GREEDY";
  int interval_ms = 500;
  int publish_interval = 32;
  bool once = false;
  std::string export_format = "text";
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool ParseArgs(int argc, char** argv, TopOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--once") {
      opts->once = true;
    } else if (ParseFlag(arg, "tenants", &value)) {
      opts->tenants = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "models", &value)) {
      opts->models = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "shards", &value)) {
      opts->shards = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "devices", &value)) {
      opts->devices = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "scheduler", &value)) {
      opts->scheduler = value;
    } else if (ParseFlag(arg, "interval-ms", &value)) {
      opts->interval_ms = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "publish-interval", &value)) {
      opts->publish_interval = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "export", &value)) {
      if (value != "text" && value != "json") return false;
      opts->export_format = value;
    } else {
      return false;
    }
  }
  return opts->tenants > 0 && opts->models > 0 && opts->shards > 0 &&
         opts->devices > 0 && opts->interval_ms > 0 &&
         opts->publish_interval > 0;
}

bool ParseScheduler(const std::string& name, easeml::core::SchedulerKind* kind) {
  if (name == "HYBRID") *kind = easeml::core::SchedulerKind::kHybrid;
  else if (name == "GREEDY") *kind = easeml::core::SchedulerKind::kGreedy;
  else if (name == "RR") *kind = easeml::core::SchedulerKind::kRoundRobin;
  else if (name == "RANDOM") *kind = easeml::core::SchedulerKind::kRandom;
  else if (name == "FCFS") *kind = easeml::core::SchedulerKind::kFcfs;
  else return false;
  return true;
}

/// Deterministic synthetic training outcome in (0.05, 0.95).
double Accuracy(int tenant, int model) {
  const uint64_t h = easeml::SplitMix64(
      static_cast<uint64_t>(tenant) * 1000003u + static_cast<uint64_t>(model));
  return 0.05 + 0.9 * (static_cast<double>(h >> 11) * 0x1.0p-53);
}

/// The selection campaign: keeps up to `devices` tickets in flight, reports
/// them FIFO with synthetic accuracies. Runs until exhaustion or `stop`.
void DriveCampaign(easeml::core::MultiTenantSelector* selector, int devices,
                   const std::atomic<bool>* stop, std::atomic<bool>* failed) {
  using Assignment = easeml::core::MultiTenantSelector::Assignment;
  std::vector<Assignment> in_flight;
  while (!stop->load(std::memory_order_relaxed)) {
    while (static_cast<int>(in_flight.size()) < devices &&
           selector->HasDispatchableWork()) {
      easeml::Result<Assignment> next = selector->Next();
      if (!next.ok()) break;
      in_flight.push_back(*next);
    }
    if (in_flight.empty()) break;  // exhausted
    const Assignment a = in_flight.front();
    in_flight.erase(in_flight.begin());
    const easeml::Status reported =
        selector->Report(a, Accuracy(a.tenant, a.model));
    if (!reported.ok()) {
      std::fprintf(stderr, "easeml_top: report failed: %s\n",
                   reported.ToString().c_str());
      failed->store(true, std::memory_order_relaxed);
      return;
    }
  }
  // Unwind anything still in flight so the engine ends quiescent.
  for (const Assignment& a : in_flight) (void)selector->Cancel(a);
}

void RenderFrame(const easeml::obs::FleetObserver& observer,
                 const easeml::obs::Registry& registry,
                 const TopOptions& opts, bool clear_screen) {
  const easeml::obs::FleetSnapshot snap = observer.plane().Snapshot();
  if (clear_screen) std::fputs("\x1b[2J\x1b[H", stdout);
  std::printf("easeml_top — fleet epoch %llu, %d shard(s)\n",
              static_cast<unsigned long long>(snap.epoch()),
              static_cast<int>(snap.shards.size()));
  std::printf("%5s %8s %8s %8s %8s %9s %8s %10s\n", "SHARD", "TENANTS",
              "RETIRED", "SCHED", "UNINIT", "INFLIGHT", "ROUNDS", "EPOCH");
  for (size_t s = 0; s < snap.shards.size(); ++s) {
    const easeml::obs::ShardBlock& b = *snap.shards[s];
    std::printf("%5zu %8lld %8lld %8lld %8lld %9lld %8lld %10llu\n", s,
                static_cast<long long>(b.agg.tenants),
                static_cast<long long>(b.agg.retired),
                static_cast<long long>(b.agg.schedulable),
                static_cast<long long>(b.agg.uninitialized),
                static_cast<long long>(b.agg.in_flight),
                static_cast<long long>(b.agg.rounds),
                static_cast<unsigned long long>(b.epoch));
  }
  const easeml::obs::ShardAggregates total = snap.Totals();
  std::printf("%5s %8lld %8lld %8lld %8lld %9lld %8lld\n", "TOTAL",
              static_cast<long long>(total.tenants),
              static_cast<long long>(total.retired),
              static_cast<long long>(total.schedulable),
              static_cast<long long>(total.uninitialized),
              static_cast<long long>(total.in_flight),
              static_cast<long long>(total.rounds));

  // Top schedulable tenants by line-8 gap — the "who trains next" view.
  std::vector<TenantObservation> top;
  snap.ForEachTenant([&top](int shard, const TenantObservation& o) {
    (void)shard;
    if (o.schedulable && !o.retired) top.push_back(o);
  });
  std::sort(top.begin(), top.end(),
            [](const TenantObservation& a, const TenantObservation& b) {
              if (a.gap != b.gap) return a.gap > b.gap;
              return a.tenant < b.tenant;
            });
  if (top.size() > 10) top.resize(10);
  std::printf("\n%7s %7s %6s %9s %9s %9s %9s\n", "TENANT", "ROUNDS", "BEST",
              "BEST_ACC", "BOUND", "GAP", "MAX_UCB");
  for (const TenantObservation& o : top) {
    std::printf("%7d %7d %6d %9.4f %9.4f %9.4f %9.4f\n", o.tenant,
                o.rounds_served, o.best_model, o.best_reward, o.bound, o.gap,
                o.max_ucb);
  }

  std::printf("\nMETRICS (%s)\n", opts.export_format.c_str());
  const std::string exported = opts.export_format == "json"
                                   ? registry.ExportJson()
                                   : registry.ExportText();
  std::fputs(exported.c_str(), stdout);
  if (!exported.empty() && exported.back() != '\n') std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  TopOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(
        stderr,
        "usage: easeml_top [--tenants=N] [--models=K] [--shards=N] "
        "[--devices=D] [--scheduler=HYBRID|GREEDY|RR|RANDOM|FCFS] "
        "[--interval-ms=MS] [--publish-interval=N] [--once] "
        "[--export=text|json]\n");
    return 1;
  }

  easeml::core::SelectorOptions selector_options;
  if (!ParseScheduler(opts.scheduler, &selector_options.scheduler)) {
    std::fprintf(stderr, "easeml_top: unknown scheduler '%s'\n",
                 opts.scheduler.c_str());
    return 1;
  }
  selector_options.num_shards = opts.shards;
  selector_options.num_devices = opts.devices;

  easeml::obs::Registry registry;
  easeml::obs::FleetObserverOptions obs_options;
  obs_options.publish_interval = opts.publish_interval;
  obs_options.registry = &registry;
  easeml::Result<easeml::obs::ObservedSelector> observed =
      easeml::obs::MakeObservedSelector(selector_options, obs_options);
  if (!observed.ok()) {
    std::fprintf(stderr, "easeml_top: %s\n",
                 observed.status().ToString().c_str());
    return 1;
  }
  easeml::core::MultiTenantSelector* selector = observed->selector.get();
  for (int t = 0; t < opts.tenants; ++t) {
    std::vector<double> costs;
    costs.reserve(static_cast<size_t>(opts.models));
    for (int m = 0; m < opts.models; ++m) {
      costs.push_back(1.0 + 0.25 * static_cast<double>((t + m) % opts.models));
    }
    easeml::Result<int> added =
        selector->AddTenantWithDefaultPrior(opts.models, std::move(costs));
    if (!added.ok()) {
      std::fprintf(stderr, "easeml_top: %s\n",
                   added.status().ToString().c_str());
      return 1;
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread driver([&] {
    DriveCampaign(selector, opts.devices, &stop, &failed);
  });

  if (opts.once) {
    driver.join();  // every fold ran on that thread: the plane is quiet
    observed->observer->plane().FlushAll();
    RenderFrame(*observed->observer, registry, opts, /*clear_screen=*/false);
    return failed.load() ? 1 : 0;
  }

  std::atomic<bool> driver_done{false};
  std::thread waiter([&] {
    driver.join();
    driver_done.store(true, std::memory_order_relaxed);
  });
  while (!driver_done.load(std::memory_order_relaxed)) {
    RenderFrame(*observed->observer, registry, opts, /*clear_screen=*/true);
    std::this_thread::sleep_for(std::chrono::milliseconds(opts.interval_ms));
  }
  waiter.join();  // the campaign thread has stopped (see --once)
  observed->observer->plane().FlushAll();
  RenderFrame(*observed->observer, registry, opts, /*clear_screen=*/true);
  return failed.load() ? 1 : 0;
}
