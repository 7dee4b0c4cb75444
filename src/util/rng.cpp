#include "util/rng.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <mutex>
#include <numbers>
#include <vector>

namespace slp {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

using State = std::array<std::uint64_t, 4>;

/// xoshiro256's state update: next() without the output scrambler.
void advance(State& s) {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
}

/// A 256x256 GF(2) matrix stored as its column images: col[j] = M e_j.
using Matrix = std::array<State, 256>;

State multiply(const Matrix& m, const State& v) {
  State r{};
  for (int j = 0; j < 256; ++j) {
    const std::uint64_t mask = 0 - ((v[j >> 6] >> (j & 63)) & 1);
    for (int w = 0; w < 4; ++w) r[w] ^= m[j][w] & mask;
  }
  return r;
}

/// pow_[k] = T^(2^k), grown on demand up to the highest bit ever jumped.
class JumpTable {
 public:
  State jump(State s, std::uint64_t n) {
    const std::scoped_lock lock{mu_};
    while (pow_.size() < static_cast<std::size_t>(std::bit_width(n))) grow();
    for (std::size_t k = 0; k < pow_.size(); ++k) {
      if ((n >> k) & 1) s = multiply(pow_[k], s);
    }
    return s;
  }

 private:
  void grow() {
    Matrix m;
    for (int j = 0; j < 256; ++j) {
      if (pow_.empty()) {
        State e{};
        e[j >> 6] = 1ull << (j & 63);
        advance(e);
        m[j] = e;
      } else {
        m[j] = multiply(pow_.back(), pow_.back()[j]);  // T^(2^(k+1)) = (T^(2^k))^2
      }
    }
    pow_.push_back(m);
  }

  std::mutex mu_;
  std::vector<Matrix> pow_;
};

}  // namespace

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

void Rng::reseed(std::uint64_t seed) {
  seed_ = seed;
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // A theoretically possible all-zero state would lock the generator at 0.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::fork(std::string_view label) const {
  return Rng{seed_ ^ rotl(fnv1a64(label), 17)};
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  advance(s_);
  return result;
}

void Rng::discard(std::uint64_t n) {
  static JumpTable table;
  s_ = table.jump(s_, n);
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
  // Lemire's rejection-free-in-expectation bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * span;
  auto low = static_cast<std::uint64_t>(m);
  if (low < span) {
    const std::uint64_t threshold = (0 - span) % span;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * span;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) {
  assert(mean >= 0.0);
  if (mean == 0.0) return 0.0;
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - uniform());
}

double Rng::normal(double mu, double sigma) {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mu + sigma * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::pareto(double x_m, double alpha) {
  assert(x_m > 0.0 && alpha > 0.0);
  return x_m / std::pow(1.0 - uniform(), 1.0 / alpha);
}

std::size_t Rng::index(std::size_t n) {
  assert(n > 0);
  return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

}  // namespace slp
