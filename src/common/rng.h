#ifndef SUBREC_COMMON_RNG_H_
#define SUBREC_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace subrec {

/// Stateless splitmix64: advances `x` by the golden-ratio increment and
/// mixes it into a well-spread 64-bit word. A pure function, so seeds and
/// levels hashed from it (per-paper streams, HNSW node levels) depend on
/// their inputs alone.
uint64_t SplitMix64(uint64_t x);

/// Deterministic, seedable PRNG (xoshiro256**). Every stochastic component
/// in the library takes an Rng (or a seed) so experiments reproduce
/// bit-for-bit across runs and platforms.
class Rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via splitmix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit word.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound). `bound` must be positive.
  uint64_t UniformInt(uint64_t bound);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal via Box-Muller (cached second value).
  double Gaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Exponential with rate lambda (> 0).
  double Exponential(double lambda);

  /// Poisson-distributed count with the given mean (>= 0). Uses Knuth's
  /// method for small means and a normal approximation above 64.
  int Poisson(double mean);

  /// Gamma(shape, scale) via Marsaglia-Tsang; shape > 0, scale > 0.
  double Gamma(double shape, double scale);

  /// True with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Samples an index from unnormalized non-negative weights. At least one
  /// weight must be positive.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates in-place shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Forks a new independent stream; deterministic given this Rng's state.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace subrec

#endif  // SUBREC_COMMON_RNG_H_
