#ifndef EASEML_PERFBENCH_TRACE_H_
#define EASEML_PERFBENCH_TRACE_H_

// In-memory span recorder, timing helpers, the operation ledger and the
// metric sink shared by every workload of the benchmark.
//
// Spans are recorded only when the tracer is enabled; a disabled span is one
// branch. Each thread appends to its own buffer (the client thread, and the
// shard workers whose observer/WAL hooks the decorators wrap), so recording
// never takes a lock after the first span of a thread. Spans name their
// parent (the innermost open span of the same thread) and carry the client's
// current decision id, which worker-side hook spans inherit.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

enum class Span : uint8_t {
  kDecision,        // client: Report(previous) + Next, or one service Step
  kNext,            // MultiTenantSelector::Next
  kReport,          // MultiTenantSelector::Report
  kAddTenant,       // MultiTenantSelector::AddTenant
  kStep,            // EaseMlService::Step
  kInfer,           // EaseMlService::Infer
  kSubmit,          // EaseMlService::SubmitJob
  kFeed,            // EaseMlService::Feed
  kSnapshot,        // SnapshotPlane::Snapshot
  kCheckpoint,      // wal::CutCheckpoint
  kRecovery,        // wal::OpenOrRecover
  kWalAppend,       // DurabilityLog::Log* (decorator)
  kWalSync,         // DurabilityLog::Sync (decorator)
  kFileAppend,      // WritableFile::Append on the log (counting filesystem)
  kOtherFileAppend, // WritableFile::Append on any other file (checkpoints)
  kFileSync,        // WritableFile::Sync / FileSystem::SyncDir
  kObsHook,         // SelectorObserver::On* (decorator)
  kReplaySelect,    // replayed GpUcbPolicy::SelectArm
  kReplayObserve,   // replayed SharedPriorGp::Observe
  kReplayMarginals, // replayed SharedPriorGp::AllMarginals
  kReplayNext,      // side-engine Next (service replay)
  kReplayReport,    // side-engine Report (service replay)
  kReplayAddTenant, // bare 2-shard engine AddTenant (service replay)
  kCholAppend,      // linalg::Cholesky::Append at a fixed size
  kCount,
};

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t decision = -1;
  int32_t parent = -1;  // index into the same thread's buffer; -1 = root
  uint8_t kind = 0;
  uint8_t thread = 0;

  double us() const { return 1e-3 * static_cast<double>(end_ns - start_ns); }
};

struct ThreadSpans {
  uint8_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<int32_t> open;  // stack of open span indices
};

/// Steady-clock nanoseconds.
int64_t NowNs();

/// Thread CPU seconds of the calling thread.
double ThreadCpuNow();

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Decision id stamped on spans that start from now on (client thread).
  void set_decision(int64_t d) {
    decision_.store(d, std::memory_order_relaxed);
  }

  int32_t Begin(Span kind);
  void End(int32_t index);

  /// Every thread's buffer; call only while no other thread records.
  std::vector<const ThreadSpans*> Buffers() const;
  /// Drops every recorded span (buffers stay registered).
  void Clear();
  /// Writes every span as tab-separated text to `path`.
  easeml::Status WriteTsv(const std::string& path) const;

 private:
  ThreadSpans* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> decision_{-1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> buffers_;
};

/// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span kind) {
    Tracer& t = Tracer::Get();
    if (t.enabled()) index_ = t.Begin(kind);
  }
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::Get().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_ = -1;
};

// --- Statistics -------------------------------------------------------------

/// Linear-interpolation quantile (q in [0,1]) of `v`; 0 for an empty input.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// End-to-end figures of a run that serves each input realization several
/// times. Every repetition of a realization makes exactly the same
/// decisions, so each decision keeps the least latency it showed in any
/// repetition, and likewise the least wall time of its closed-loop
/// iteration (its start to the next decision's start, which includes the
/// client's other calls). Host contention only ever adds time, so these
/// minima are the realization's clean episode. Throughput (decisions over
/// the summed iteration minima) and the latency median come from it; the
/// reported figure is the median over the realizations. (Its p99 is only
/// printed: on the host this was sized on it moved by up to 40% between
/// runs, more than any end-to-end bound allows.)
class CleanEpisodes {
 public:
  /// One repetition: start time of every decision, the end of the serving
  /// phase, and every decision's latency.
  void Add(int realization, const std::vector<int64_t>& start_ns,
           int64_t end_ns, const std::vector<double>& latency_us);

  double dps() const;
  double p50_us() const;
  /// Median plain throughput over every repetition added (no selection).
  double median_dps() const;
  /// One line per realization: repetitions, clean and plain figures.
  std::vector<std::string> Describe() const;

 private:
  struct Clean {
    int repetitions = 0;
    std::vector<double> latency_us;   // per decision, minimum so far
    std::vector<double> iteration_s;  // per decision, minimum so far
    std::vector<double> plain_dps;    // per repetition

    double dps() const;
  };

  std::map<int, Clean> by_realization_;
};

// --- Operation ledger -------------------------------------------------------

/// Per-op-type counts. A failure is an unexpected non-OK Status; a refusal
/// is a documented, expected non-OK answer (Infer before a job's first
/// finished run, Next on an exhausted engine at the end of a campaign).
class OpLedger {
 public:
  struct Counts {
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t refused = 0;
  };

  /// Counts one attempt of `op`; returns status.ok(). A non-OK status is a
  /// failure and is remembered for the report.
  bool Record(const std::string& op, const easeml::Status& status);
  void Refused(const std::string& op, int64_t n = 1);
  /// Counts `n` successful attempts of `op` at once.
  void AddOk(const std::string& op, int64_t n);

  int64_t attempted() const;
  int64_t failed() const;
  const std::map<std::string, Counts>& ops() const { return ops_; }
  const std::vector<std::string>& first_failures() const {
    return first_failures_;
  }

 private:
  std::map<std::string, Counts> ops_;
  std::vector<std::string> first_failures_;
};

// --- Metrics ----------------------------------------------------------------

class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
  std::string ToJson() const;
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// FNV-1a over a (tenant, model) decision trace.
class TraceDigest {
 public:
  void Add(int tenant, int model);
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Digest of several realizations' digests, in order.
std::string CombineDigests(const std::vector<std::string>& digests);

/// A fixed loop of benchmark-local integer and memory work (no library
/// code), timed in milliseconds as the median of five repetitions: a
/// host-drift probe.
double RefLoopMs();

/// Process peak resident set size in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // EASEML_PERFBENCH_TRACE_H_
