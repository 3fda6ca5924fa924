#include "common/exact_sum.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace easeml {

namespace {
constexpr int64_t kChunkMask = 0xffffffffLL;  // low 32 bits
}  // namespace

void ExactDoubleSum::AddProduct(double x, int64_t scale) {
  EASEML_CHECK(std::isfinite(x)) << "ExactDoubleSum: non-finite input";
  EASEML_CHECK(scale <= (int64_t{1} << 31) && scale >= -(int64_t{1} << 31))
      << "ExactDoubleSum: |scale| must be <= 2^31";
  if (x == 0.0 || scale == 0) return;

  // x = M * 2^(e-53) with |M| in [2^52, 2^53); the product M*scale fits in
  // 85 bits, and shifting into 32-bit limb alignment adds at most 31 more.
  int e = 0;
  const double m = std::frexp(x, &e);
  const auto mantissa = static_cast<int64_t>(std::ldexp(m, 53));
  __int128 v = static_cast<__int128>(mantissa) * scale;
  const bool negative = v < 0;
  unsigned __int128 u =
      negative ? -static_cast<unsigned __int128>(v)
               : static_cast<unsigned __int128>(v);

  const int bit = e - 53 + kBias;  // offset of the product's LSB
  EASEML_CHECK(bit >= 0 && bit / 32 + 3 < kLimbs)
      << "ExactDoubleSum: exponent out of range";
  u <<= (bit & 31);
  for (int limb = bit / 32; u != 0; ++limb) {
    const auto chunk = static_cast<int64_t>(static_cast<uint64_t>(u) &
                                            kChunkMask);
    limb_[limb] += negative ? -chunk : chunk;
    u >>= 32;
  }
  // Each call deposits chunks < 2^32; an int64 limb absorbs 2^31 of them
  // before it could overflow. Normalize well before that.
  if (++unnormalized_adds_ >= (1 << 24)) Normalize();
}

void ExactDoubleSum::Normalize() {
  int64_t carry = 0;
  for (int limb = 0; limb < kLimbs - 1; ++limb) {
    const int64_t cur = limb_[limb] + carry;
    const int64_t low = cur & kChunkMask;  // == cur mod 2^32, non-negative
    carry = (cur - low) >> 32;             // exact: cur - low is a multiple
    limb_[limb] = low;
  }
  limb_[kLimbs - 1] += carry;
  unnormalized_adds_ = 0;
}

int ExactDoubleSum::SignInPlace() {
  Normalize();
  // Normal form: limbs below the top are in [0, 2^32), the top limb holds
  // the (possibly negative) overflow. |top * 2^(32*top_pos)| dominates the
  // non-negative lower limbs, so the top limb's sign decides.
  if (limb_[kLimbs - 1] != 0) {
    return limb_[kLimbs - 1] > 0 ? 1 : -1;
  }
  for (int limb = kLimbs - 2; limb >= 0; --limb) {
    if (limb_[limb] != 0) return 1;
  }
  return 0;
}

int ExactDoubleSum::Sign() const {
  ExactDoubleSum tmp = *this;
  return tmp.SignInPlace();
}

int ExactDoubleSum::Compare(const ExactDoubleSum& other) const {
  ExactDoubleSum diff = *this;
  ExactDoubleSum rhs = other;
  diff.Normalize();
  rhs.Normalize();
  for (int limb = 0; limb < kLimbs; ++limb) diff.limb_[limb] -= rhs.limb_[limb];
  diff.unnormalized_adds_ = 1;
  return diff.SignInPlace();
}

int ExactDoubleSum::CompareScaled(double x, int64_t n) const {
  ExactDoubleSum diff = *this;  // one scratch copy; sign read in place
  diff.AddProduct(x, -n);       // diff = sum - x*n, exactly
  return -diff.SignInPlace();
}

double ExactDoubleSum::MeanCut(int64_t n) const {
  EASEML_CHECK(n >= 1) << "ExactDoubleSum: MeanCut needs n >= 1";
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Any start is correct: the walk below stops only where the two exact
  // checks hold. The estimate's accuracy (within ~1 ulp of the mean) only
  // keeps the walk to a step or two.
  double c = std::clamp(static_cast<double>(WideValue() / n), -kMax, kMax);
  if (CompareScaled(c, n) >= 0) {
    // c passes: walk down while the next double below still passes.
    while (c > -kMax) {
      const double below = std::nextafter(c, -kInf);
      if (CompareScaled(below, n) < 0) break;
      c = below;
    }
    return c;
  }
  // c fails: walk up to the first double that passes.
  do {
    if (c == kMax) return kInf;
    c = std::nextafter(c, kInf);
  } while (CompareScaled(c, n) < 0);
  return c;
}

long double ExactDoubleSum::WideValue() const {
  ExactDoubleSum tmp = *this;
  tmp.Normalize();
  // A sum of doubles of similar magnitude fills a few limbs of the 70, and
  // the long-double ldexp is most of this function's cost, so zero limbs
  // are skipped. That keeps every bit: acc starts at +0 and adding a
  // nonzero term can round to +0 but never to -0, so acc is never -0, and
  // acc + (+0) == acc exactly.
  long double acc = 0.0L;
  for (int limb = kLimbs - 1; limb >= 0; --limb) {
    if (tmp.limb_[limb] == 0) continue;
    acc += std::ldexp(static_cast<long double>(tmp.limb_[limb]),
                      32 * limb - kBias);
  }
  return acc;
}

double ExactDoubleSum::Value() const {
  return static_cast<double>(WideValue());
}

}  // namespace easeml
