// rng.hpp — deterministic random number generation.
//
// Every stochastic component in the simulator draws from its own Rng stream,
// forked from a single campaign seed by component label. This keeps runs
// reproducible bit-for-bit and keeps components decoupled: adding draws to
// one component never perturbs another component's stream.
//
// Generator: xoshiro256** (Blackman & Vigna), seeded via splitmix64.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace slp {

/// xoshiro256** pseudo-random generator with distribution helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xA11CE5EEDull) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Creates an independent stream derived from this seed and a label.
  /// Forking with the same label always yields the same stream; the parent
  /// generator state is not advanced.
  [[nodiscard]] Rng fork(std::string_view label) const;

  /// Raw 64 uniform bits.
  std::uint64_t next();

  /// Advances the stream exactly as `n` calls of next() would, in
  /// O(log n): xoshiro256's state update is linear over GF(2), so n steps
  /// are one product with the transition-matrix powers T^(2^k) for the set
  /// bits of n. The powers are built lazily, once per process, and shared
  /// by every thread.
  void discard(std::uint64_t n);

  // UniformRandomBitGenerator interface, so <random> distributions also work.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial.
  bool chance(double p);
  /// Exponential with the given mean (mean = 1/lambda). Returns >= 0.
  double exponential(double mean);
  /// Standard normal via Box-Muller (stateless variant: uses two draws).
  double normal(double mu = 0.0, double sigma = 1.0);
  /// Log-normal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);
  /// Pareto with scale x_m > 0 and shape alpha > 0. Returns >= x_m.
  double pareto(double x_m, double alpha);

  /// Picks an index in [0, n) uniformly. Requires n > 0.
  std::size_t index(std::size_t n);

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_ = 0;
};

/// 64-bit FNV-1a hash; used for stable stream labels.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s);

}  // namespace slp
