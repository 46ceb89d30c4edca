#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace subrec {
namespace {

// Weyl-sequence increment of splitmix64 (2^64 / golden ratio).
constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

uint64_t SplitMix64(uint64_t x) {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng::Rng(uint64_t seed) {
  // The classic splitmix64 stream: lane i mixes seed + (i + 1) * gamma.
  for (auto& lane : s_) {
    lane = SplitMix64(seed);
    seed += kSplitMix64Gamma;
  }
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  SUBREC_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::UniformDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = UniformDouble();
  while (u1 <= 1e-300) u1 = UniformDouble();
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = r * std::sin(kTwoPi * u2);
  has_cached_gaussian_ = true;
  return r * std::cos(kTwoPi * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::Exponential(double lambda) {
  SUBREC_CHECK_GT(lambda, 0.0);
  double u = UniformDouble();
  while (u <= 1e-300) u = UniformDouble();
  return -std::log(u) / lambda;
}

int Rng::Poisson(double mean) {
  SUBREC_CHECK_GE(mean, 0.0);
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction.
    const double v = Gaussian(mean, std::sqrt(mean));
    return v < 0.0 ? 0 : static_cast<int>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  int k = 0;
  double prod = UniformDouble();
  while (prod > limit) {
    ++k;
    prod *= UniformDouble();
  }
  return k;
}

double Rng::Gamma(double shape, double scale) {
  SUBREC_CHECK_GT(shape, 0.0);
  SUBREC_CHECK_GT(scale, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and correct with a power of a uniform.
    const double u = std::max(UniformDouble(), 1e-300);
    return Gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = Gaussian();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = UniformDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (std::log(std::max(u, 1e-300)) <
        0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

size_t Rng::Categorical(const std::vector<double>& weights) {
  SUBREC_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    SUBREC_CHECK_GE(w, 0.0);
    total += w;
  }
  SUBREC_CHECK_GT(total, 0.0) << "all categorical weights are zero";
  double r = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  SUBREC_CHECK_LE(k, n);
  // Partial Fisher-Yates over an index array; O(n) memory, fine at our scale.
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + UniformInt(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace subrec
