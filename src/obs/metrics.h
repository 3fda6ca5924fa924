#ifndef EASEML_OBS_METRICS_H_
#define EASEML_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/thread_annotations.h"

namespace easeml::obs {

/// Hot-path instruments for the serving engine: relaxed-atomic counters and
/// fixed-bucket latency histograms, owned by a `Registry` keyed on stable
/// metric names. The recording side (`Counter::Increment`,
/// `Histogram::Record`) is wait-free — one or a few relaxed atomic RMWs, no
/// locks, no allocation — so instruments can sit directly on the `Next`/
/// `Report` paths without perturbing the latencies they measure. Reads
/// (`Value`, the exporters) are racy-by-design point-in-time sums: each
/// load is atomic, but a scrape that straddles concurrent records may see
/// a histogram whose bucket total lags `Count()` by in-flight increments —
/// fine for monitoring, documented here so nobody "fixes" it with a lock.

/// Monotonic event counter. Relaxed ordering: counts are aggregates with no
/// cross-variable ordering contract.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Fixed-bucket latency histogram over microseconds. The bounds ladder is
/// compiled in (roughly logarithmic, 0.5µs .. 50ms) because every latency
/// this repo measures — index descents, Cholesky folds, training-job walls —
/// lands in that window; a shared ladder keeps every exported histogram
/// directly comparable. Values above the top bound land in the implicit +inf
/// bucket.
class Histogram {
 public:
  static constexpr double kBounds[] = {0.5,   1.0,    2.0,    5.0,    10.0,
                                       20.0,  50.0,   100.0,  200.0,  500.0,
                                       1000., 2000.,  5000.,  10000., 20000.,
                                       50000.};
  static constexpr int kNumBounds = static_cast<int>(sizeof(kBounds) /
                                                     sizeof(kBounds[0]));
  static constexpr int kNumBuckets = kNumBounds + 1;  // trailing +inf bucket

  /// Records one sample of `us` microseconds. Negative samples clamp to 0
  /// (they can only come from clock retrograde, which the monotonic seam
  /// already rules out; the clamp keeps the sum well-defined regardless).
  void Record(double us);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of recorded samples in microseconds (accumulated in integer
  /// nanoseconds so concurrent recording stays associative and exact up to
  /// the 1ns quantization).
  double SumUs() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) *
           1e-3;
  }
  double MeanUs() const {
    const uint64_t n = Count();
    return n == 0 ? 0.0 : SumUs() / static_cast<double>(n);
  }
  uint64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  /// Approximate quantile (q in [0,1]) by linear interpolation inside the
  /// owning bucket; the +inf bucket reports the top finite bound.
  double QuantileUs(double q) const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

/// Name-keyed instrument registry. `GetCounter`/`GetHistogram` create on
/// first use and return stable pointers (instruments are heap-allocated and
/// never deleted while the registry lives), so hot paths resolve a name once
/// at wiring time and record through the raw pointer thereafter. The lock
/// only guards the name maps — never a record.
class Registry {
 public:
  Counter* GetCounter(const std::string& name) EASEML_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name) EASEML_EXCLUDES(mu_);

  /// Prometheus-flavoured text exposition: one `name value` line per
  /// counter, `name_count/_sum_us/_mean_us/_p50_us/_p99_us` per histogram,
  /// sorted by name (std::map order) so exports diff cleanly.
  std::string ExportText() const EASEML_EXCLUDES(mu_);
  /// The same data as one JSON object: {"counters":{...},"histograms":
  /// {name:{count,sum_us,mean_us,p50_us,p99_us,buckets:[...]}}}.
  std::string ExportJson() const EASEML_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      EASEML_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      EASEML_GUARDED_BY(mu_);
};

}  // namespace easeml::obs

#endif  // EASEML_OBS_METRICS_H_
