#include "common/rng.h"

#include <sstream>

#include "common/logging.h"

namespace easeml {

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int Rng::UniformInt(int lo, int hi) {
  EASEML_DCHECK(lo <= hi) << "UniformInt: lo=" << lo << " hi=" << hi;
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

namespace {

/// A URNG with the engine's range whose every draw is `word`.
struct OneWord {
  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() const { return word; }
  result_type word;
};

}  // namespace

Rng::BernoulliCut Rng::FindBernoulliCut(double p) {
  std::bernoulli_distribution dist(p);
  const auto flips = [&dist](uint64_t word) {
    OneWord probe{word};
    return dist(probe);
  };
  if (flips(OneWord::max())) return BernoulliCut{0, true};
  // Invariant: every word below `lo` flips and `hi` does not.
  uint64_t lo = OneWord::min();
  uint64_t hi = OneWord::max();
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (flips(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return BernoulliCut{lo, false};
}

std::vector<double> Rng::MultivariateNormal(
    const std::vector<double>& mean, const std::vector<double>& chol_lower,
    int n) {
  EASEML_DCHECK(static_cast<int>(mean.size()) == n);
  EASEML_DCHECK(static_cast<int>(chol_lower.size()) == n * n);
  std::vector<double> z(n);
  for (int i = 0; i < n; ++i) z[i] = Normal();
  std::vector<double> out(n);
  for (int i = 0; i < n; ++i) {
    double acc = mean[i];
    for (int j = 0; j <= i; ++j) acc += chol_lower[i * n + j] * z[j];
    out[i] = acc;
  }
  return out;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  EASEML_DCHECK(k >= 0 && k <= n);
  std::vector<int> idx(n);
  for (int i = 0; i < n; ++i) idx[i] = i;
  // Partial Fisher–Yates: the first k entries are the sample.
  for (int i = 0; i < k; ++i) {
    int j = UniformInt(i, n - 1);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

uint64_t Rng::NextSeed() {
  std::uniform_int_distribution<uint64_t> dist;
  return dist(engine_);
}

std::string Rng::SaveState() const {
  std::ostringstream os;
  os << engine_;
  return os.str();
}

Status Rng::LoadState(const std::string& state) {
  std::istringstream is(state);
  std::mt19937_64 restored;
  is >> restored;
  if (is.fail()) {
    return Status::DataLoss("Rng::LoadState: engine state does not parse");
  }
  engine_ = restored;
  return Status::OK();
}

uint64_t SplitMix64(uint64_t x) {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace easeml
