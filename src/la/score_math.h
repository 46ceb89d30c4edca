#ifndef SUBREC_LA_SCORE_MATH_H_
#define SUBREC_LA_SCORE_MATH_H_

#include <cstdint>

namespace subrec::la {

/// 2^(j/128) for j in [0, 128), correctly rounded to double. The constants
/// were generated offline with arbitrary-precision decimal arithmetic (60
/// digits), not with the host libm, so the table is identical on every
/// build host. Defined in score_math.cc.
extern const double kScoreExpTable[128];

namespace score_math_internal {

inline double BitsToDouble(uint64_t b) {
  double d;
  __builtin_memcpy(&d, &b, sizeof(d));
  return d;
}

inline uint64_t DoubleToBits(double d) {
  uint64_t b;
  __builtin_memcpy(&b, &d, sizeof(b));
  return b;
}

}  // namespace score_math_internal

/// Deterministic replacement for std::exp on the scoring path.
///
/// std::exp dispatches into libm, whose result can change across libc
/// versions and whose vectorized variants (libmvec) round differently from
/// the scalar entry point — either would silently break the frozen-vs-live
/// and batch-vs-pairwise bit-equality gates. ScoreExp is a fixed,
/// branch-free instruction sequence owned by this repo: clamp, reduce
/// against a 128-entry 2^(j/128) table with a Cody-Waite split of
/// ln2/128, a degree-5 polynomial on the ~[-ln2/256, ln2/256] residual,
/// then an exact power-of-two scale built from exponent bits. Every step
/// is a per-element IEEE double op, so a compiler that auto-vectorizes a
/// loop of ScoreExp calls produces bit-identical lanes (provided FMA
/// contraction is off in that translation unit — see the exact-kernel
/// TUs' -ffp-contract=off).
///
/// Accuracy: within ~1 ulp of correctly rounded over the clamp range
/// (validated against std::exp in la_test). Arguments are clamped to
/// [-708, 708]; e^±708 is a normal double, so the clamp keeps the whole
/// pipeline (including the 2^e scale) in normal range with no inf/NaN
/// special-casing. Callers feed finite dot products; a NaN argument gives
/// an unspecified (finite) result rather than NaN.
inline double ScoreExp(double x) {
  using score_math_internal::BitsToDouble;
  using score_math_internal::DoubleToBits;
  constexpr double kClamp = 708.0;
  constexpr double kInvLn2N = 0x1.71547652b82fep+7;  // 128/ln2
  constexpr double kMagic = 0x1.8p52;                // 1.5 * 2^52
  constexpr double kC1 = 0x1.62e4200000000p-8;       // ln2/128, high 21 bits
  constexpr double kC2 = 0x1.fdf473de6af28p-29;      // ln2/128 - kC1
  constexpr double kP2 = 0x1.0000000000000p-1;       // 1/2
  constexpr double kP3 = 0x1.5555555555555p-3;       // 1/6
  constexpr double kP4 = 0x1.5555555555555p-5;       // 1/24
  constexpr double kP5 = 0x1.1111111111111p-7;       // 1/120
  x = x > kClamp ? kClamp : x;
  x = x < -kClamp ? -kClamp : x;
  // Round x * 128/ln2 to the nearest integer n via the shift trick: adding
  // 1.5*2^52 forces the sum into [2^52, 2^53), where the mantissa's low
  // bits are exactly the two's-complement integer. |n| < 2^18, so the
  // round-trip is exact and nd == (double)n.
  const double t = x * kInvLn2N;
  const double shifted = t + kMagic;
  const int64_t n = static_cast<int64_t>(DoubleToBits(shifted)) -
                    static_cast<int64_t>(INT64_C(0x4338000000000000));
  const double nd = shifted - kMagic;
  // Cody-Waite residual u = x - n*ln2/128. n has <= 18 significant bits
  // and kC1 has 21, so nd*kC1 is exact; the subtraction cancels without
  // error and kC2 restores the discarded low bits of ln2/128.
  const double u = (x - nd * kC1) - nd * kC2;
  // e^u for |u| <= ln2/256 + rounding: degree-5 Horner, error < 2^-60.
  double p = kP5;
  p = p * u + kP4;
  p = p * u + kP3;
  p = p * u + kP2;
  p = p * u + 1.0;
  p = p * u + 1.0;
  const int64_t e = n >> 7;  // arithmetic shift: floor(n/128)
  const int64_t j = n & 127;
  // 2^e as bits: e in [-1022, 1022] under the clamp, always normal, and a
  // power-of-two multiply is exact.
  const double scale =
      BitsToDouble(static_cast<uint64_t>(e + 1023) << 52);
  return (kScoreExpTable[j] * p) * scale;
}

/// The serving-score squash 1/(1 + e^-x), built on ScoreExp so pairwise
/// and batched scorers (and the live NPRec scorer the snapshot was frozen
/// from) agree bit for bit. Saturates to exactly 1.0 for x >= ~745 and to
/// a tiny normal/subnormal for very negative x — same shape as the libm
/// version it replaces.
inline double ScoreSigmoid(double x) { return 1.0 / (1.0 + ScoreExp(-x)); }

}  // namespace subrec::la

#endif  // SUBREC_LA_SCORE_MATH_H_
