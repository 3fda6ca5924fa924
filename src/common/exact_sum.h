#ifndef EASEML_COMMON_EXACT_SUM_H_
#define EASEML_COMMON_EXACT_SUM_H_

#include <array>
#include <cstdint>

namespace easeml {

/// Exact, summation-order-invariant accumulation of IEEE-754 doubles.
///
/// Floating-point addition is not associative, and subtracting a value
/// does not undo adding it: a running double sum that bounds enter and
/// leave as tenants change drifts (in the last ulps) from the same sum
/// computed fresh — enough to flip threshold comparisons such as GREEDY's
/// candidate-set test, so the candidate index's running sum would stop
/// matching the scan's fresh one. `ExactDoubleSum` removes the problem at
/// the root: every finite double is an integer multiple of 2^-1074, so the
/// sum is held as a wide fixed-point integer (64-bit limbs of 32 value
/// bits each, covering the full double exponent range). Integer addition
/// is exact and commutative, hence `AddProduct(x, -1)` cancels `Add(x)`
/// bit-for-bit and the accumulator is the same for ANY ordering of the
/// inputs — the invariant that lets the index's running sum equal the
/// scan's fresh accumulation.
///
/// Thresholds are evaluated exactly: `CompareScaled(x, n)` returns the
/// exact sign of (x * n - sum), i.e. "is x at least the mean of the n
/// accumulated values" when called with the accumulated count, with no
/// rounding anywhere. Each call copies and normalizes the accumulator
/// (~0.1 us), so a caller that tests many values against ONE mean asks
/// for the mean's cut instead (`MeanCut`): a double c such that
/// `CompareScaled(x, n) >= 0` holds exactly when `x >= c`. The cut is
/// still exact — it is pinned by two `CompareScaled` checks, not derived
/// from a rounded mean — and each test against it is one double compare.
///
/// Capacity: at most 2^31 - 1 additions (enforced by EASEML_CHECK via the
/// scale bound) between which no overflow is possible; limb carries are
/// normalized lazily. This covers any tenant count the selector can hold.
class ExactDoubleSum {
 public:
  /// Adds `x` exactly. Precondition: `x` is finite.
  void Add(double x) { AddProduct(x, 1); }

  /// Adds the exact product x * scale (no intermediate rounding).
  /// Preconditions: `x` finite, |scale| <= 2^31.
  void AddProduct(double x, int64_t scale);

  /// Exact sign of (x * n - sum): -1, 0 or +1. Preconditions as AddProduct.
  /// `CompareScaled(b, count) >= 0` answers "b >= sum/count" with no
  /// floating-point rounding anywhere.
  int CompareScaled(double x, int64_t n) const;

  /// The exact cut of the mean sum/n: the smallest finite double c with
  /// c * n >= sum. Because x * n - sum grows strictly with x, for every
  /// finite x:  CompareScaled(x, n) >= 0  <=>  x >= MeanCut(n).  Returns
  /// +inf when no finite double reaches the mean. Precondition: n >= 1.
  /// Costs one `Value()` plus two or three `CompareScaled` calls, each a
  /// copy and a carry pass over the 70 limbs (about 1 us in all), so
  /// compute it once per threshold and only where several membership
  /// tests follow.
  double MeanCut(int64_t n) const;

  /// Exact sign of the accumulated sum.
  int Sign() const;

  /// Exact sign of (this - other): -1, 0 or +1. Lets an invariant check
  /// compare an incrementally maintained accumulator against a freshly
  /// rebuilt one without exposing the limb representation (two accumulators
  /// holding the same value may differ in normalization state).
  int Compare(const ExactDoubleSum& other) const;

  /// Nearest-double approximation of the sum (faithful within 1 ulp).
  /// Diagnostics/reporting only — comparisons must use CompareScaled.
  double Value() const;

 private:
  // value = sum_L limb_[L] * 2^(32*L - kBias). kBias places the least
  // subnormal bit (2^-1074) at a positive offset; kLimbs covers products
  // |M * scale| < 2^84 placed at the top of the double range.
  static constexpr int kBias = 1152;
  static constexpr int kLimbs = 70;

  /// Carry-propagates so limbs 0..kLimbs-2 lie in [0, 2^32) and the top
  /// limb absorbs the sign. Value-preserving.
  void Normalize();

  /// The sum in long double (`Value()` before its final rounding). The
  /// wider exponent range keeps sums beyond DBL_MAX finite, so dividing
  /// by n still lands next to the mean. One carry pass, then one ldexp
  /// per NONZERO limb: a sum of similar-magnitude doubles fills a few.
  long double WideValue() const;

  /// Sign(), but normalizing this accumulator in place (no copy) — the
  /// hot-path variant CompareScaled uses on its scratch accumulator.
  int SignInPlace();

  std::array<int64_t, kLimbs> limb_{};
  int unnormalized_adds_ = 0;
};

}  // namespace easeml

#endif  // EASEML_COMMON_EXACT_SUM_H_
