#include "trace.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

constexpr const char* kSpanNames[] = {
    "decision",        "core.next",        "core.report",
    "core.add_tenant", "platform.step",    "platform.infer",
    "platform.submit", "platform.feed",    "obs.snapshot",
    "wal.checkpoint",  "wal.recovery",     "wal.append",
    "wal.sync",        "wal.file_append",  "wal.other_file_append",
    "wal.file_sync",
    "obs.hook",        "bandit.select",    "gp.observe",
    "gp.marginals",    "replay.next",      "replay.report",
    "shard.add_tenant", "linalg.chol_append",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
                  static_cast<size_t>(Span::kCount),
              "one name per span kind");

thread_local ThreadSpans* tls_spans = nullptr;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

ThreadSpans* Tracer::Local() {
  if (tls_spans == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadSpans>());
    buffers_.back()->thread = static_cast<uint8_t>(buffers_.size() - 1);
    buffers_.back()->spans.reserve(1 << 16);
    tls_spans = buffers_.back().get();
  }
  return tls_spans;
}

int32_t Tracer::Begin(Span kind) {
  ThreadSpans* local = Local();
  SpanRecord rec;
  rec.kind = static_cast<uint8_t>(kind);
  rec.thread = local->thread;
  rec.decision = decision_.load(std::memory_order_relaxed);
  rec.parent = local->open.empty() ? -1 : local->open.back();
  const auto index = static_cast<int32_t>(local->spans.size());
  local->open.push_back(index);
  rec.start_ns = NowNs();
  local->spans.push_back(rec);
  return index;
}

void Tracer::End(int32_t index) {
  const int64_t now = NowNs();
  ThreadSpans* local = Local();
  local->spans[index].end_ns = now;
  local->open.pop_back();
}

std::vector<const ThreadSpans*> Tracer::Buffers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ThreadSpans*> out;
  for (const auto& b : buffers_) out.push_back(b.get());
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : buffers_) {
    b->spans.clear();
    b->open.clear();
  }
}

easeml::Status Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return easeml::Status::Internal("cannot write span file " + path);
  }
  std::fprintf(f, "span\tthread\tindex\tparent\tdecision\tstart_ns\tend_ns\n");
  for (const ThreadSpans* b : Buffers()) {
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRecord& s = b->spans[i];
      std::fprintf(f, "%s\t%d\t%zu\t%d\t%" PRId64 "\t%" PRId64 "\t%" PRId64 "\n",
                   kSpanNames[s.kind], s.thread, i, s.parent, s.decision,
                   s.start_ns, s.end_ns);
    }
  }
  return std::fclose(f) == 0
             ? easeml::Status::OK()
             : easeml::Status::Internal("cannot close span file " + path);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void CleanEpisodes::Add(int realization, const std::vector<int64_t>& start_ns,
                        int64_t end_ns, const std::vector<double>& latency_us) {
  const size_t n = latency_us.size();
  if (n == 0 || start_ns.size() != n) return;
  Clean& c = by_realization_[realization];
  if (c.repetitions > 0 && c.latency_us.size() != n) return;
  std::vector<double> iteration(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t until = i + 1 < n ? start_ns[i + 1] : end_ns;
    iteration[i] = 1e-9 * static_cast<double>(until - start_ns[i]);
  }
  if (c.repetitions == 0) {
    c.latency_us = latency_us;
    c.iteration_s = iteration;
  } else {
    for (size_t i = 0; i < n; ++i) {
      c.latency_us[i] = std::min(c.latency_us[i], latency_us[i]);
      c.iteration_s[i] = std::min(c.iteration_s[i], iteration[i]);
    }
  }
  ++c.repetitions;
  c.plain_dps.push_back(static_cast<double>(n) /
                        (1e-9 * static_cast<double>(end_ns - start_ns.front())));
}

double CleanEpisodes::Clean::dps() const {
  return static_cast<double>(iteration_s.size()) /
         std::accumulate(iteration_s.begin(), iteration_s.end(), 0.0);
}

double CleanEpisodes::dps() const {
  std::vector<double> v;
  for (const auto& [r, c] : by_realization_) v.push_back(c.dps());
  return Median(v);
}

double CleanEpisodes::p50_us() const {
  std::vector<double> v;
  for (const auto& [r, c] : by_realization_) {
    v.push_back(Quantile(c.latency_us, 0.50));
  }
  return Median(v);
}

double CleanEpisodes::median_dps() const {
  std::vector<double> all;
  for (const auto& [r, c] : by_realization_) {
    all.insert(all.end(), c.plain_dps.begin(), c.plain_dps.end());
  }
  return Median(all);
}

std::vector<std::string> CleanEpisodes::Describe() const {
  std::vector<std::string> lines;
  for (const auto& [r, c] : by_realization_) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "realization %d: %d repetitions, clean %.1f/s p50 %.3f us "
                  "p99 %.3f us; plain throughput min %.1f median %.1f max "
                  "%.1f /s",
                  r, c.repetitions, c.dps(), Quantile(c.latency_us, 0.50),
                  Quantile(c.latency_us, 0.99),
                  *std::min_element(c.plain_dps.begin(), c.plain_dps.end()),
                  Median(c.plain_dps),
                  *std::max_element(c.plain_dps.begin(), c.plain_dps.end()));
    lines.push_back(line);
  }
  return lines;
}

bool OpLedger::Record(const std::string& op, const easeml::Status& status) {
  Counts& c = ops_[op];
  ++c.attempted;
  if (status.ok()) return true;
  ++c.failed;
  if (first_failures_.size() < 8) {
    first_failures_.push_back(op + ": " + status.ToString());
  }
  return false;
}

void OpLedger::Refused(const std::string& op, int64_t n) {
  ops_[op].refused += n;
}

void OpLedger::AddOk(const std::string& op, int64_t n) {
  ops_[op].attempted += n;
}

int64_t OpLedger::attempted() const {
  int64_t n = 0;
  for (const auto& [op, c] : ops_) n += c.attempted;
  return n;
}

int64_t OpLedger::failed() const {
  int64_t n = 0;
  for (const auto& [op, c] : ops_) n += c.failed;
  return n;
}

void MetricSink::Set(const std::string& name, double value,
                     const std::string& unit) {
  values_[name] = {value, unit};
}

bool MetricSink::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string MetricSink::ToJson() const {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : values_) {
    if (!first) out += ", ";
    first = false;
    // %.17g keeps every digit of the double; non-finite values have no JSON
    // spelling and are reported as 0 with the gap named elsewhere.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  return out + "}";
}

void TraceDigest::Add(int tenant, int model) {
  const uint32_t words[2] = {static_cast<uint32_t>(tenant),
                             static_cast<uint32_t>(model)};
  for (uint32_t w : words) {
    for (int b = 0; b < 4; ++b) {
      h_ ^= (w >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
}

std::string TraceDigest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

std::string CombineDigests(const std::vector<std::string>& digests) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& d : digests) {
    for (char ch : d + ";") {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

double RefLoopMs() {
  // Pseudo-random walk over a 1 MiB table: integer ALU work plus L2-sized
  // memory traffic, the mix the selector's hot paths run on.
  std::vector<uint32_t> table(1 << 18);
  uint64_t x = 88172645463325252ull;
  for (auto& t : table) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    t = static_cast<uint32_t>(x);
  }
  std::vector<double> ms;
  uint32_t acc = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < 2'000'000; ++i) {
      acc = table[(acc ^ static_cast<uint32_t>(i)) & ((1u << 18) - 1)] +
            acc * 31u;
    }
    ms.push_back(1e-6 * static_cast<double>(NowNs() - t0));
  }
  static volatile uint32_t sink;
  sink = acc;
  (void)sink;
  return Median(ms);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
