#include "common/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace sqvae {

namespace {
// SplitMix64: used to expand the user seed into the 128-bit PCG state so
// that low-entropy seeds (0, 1, 2, ...) still yield well-separated streams.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  state_hi_ = splitmix64(s);
  state_lo_ = splitmix64(s) | 1ull;  // LCG increment must be odd
}

Rng::result_type Rng::operator()() {
  // 64-bit truncated-multiply LCG step followed by an xorshift-multiply
  // output permutation. Not literally PCG-XSL-RR-128 but the same design
  // family; passes the statistical sanity checks in tests/common_test.cpp.
  state_hi_ = state_hi_ * 6364136223846793005ull + state_lo_;
  std::uint64_t z = state_hi_;
  z ^= z >> 32;
  z *= 0xd6e8feb86659fd93ull;
  z ^= z >> 32;
  z *= 0xd6e8feb86659fd93ull;
  z ^= z >> 32;
  return z;
}

double Rng::uniform() {
  // 53 top bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v;
  do {
    v = (*this)();
  } while (v >= limit);
  return v % n;
}

int Rng::uniform_int(int lo, int hi) {
  assert(lo <= hi);
  return lo + static_cast<int>(uniform_index(
                  static_cast<std::uint64_t>(hi - lo) + 1ull));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 is kept away from 0 so log() is finite.
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::weighted_choice(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  assert(total > 0.0);
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (r < w) return i;
    r -= w;
  }
  // Floating-point round-off can leave r marginally above the last bucket;
  // return the last positive-weight index in that case.
  for (std::size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return 0;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  shuffle(p);
  return p;
}

Rng Rng::split() { return Rng((*this)()); }

Rng Rng::stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  // Two SplitMix64 avalanche rounds fold (a, b) into the seed; each input
  // is pre-multiplied by a distinct odd constant so (a, b) and (b, a) land
  // in unrelated streams.
  std::uint64_t x = seed;
  x = splitmix64(x) ^ (a * 0x9e3779b97f4a7c15ull + 0xbf58476d1ce4e5b9ull);
  x = splitmix64(x) ^ (b * 0x94d049bb133111ebull + 0xd6e8feb86659fd93ull);
  return Rng(splitmix64(x));
}

Rng::State Rng::state() const {
  return State{state_hi_, state_lo_, cached_normal_, has_cached_normal_};
}

void Rng::set_state(const State& s) {
  state_hi_ = s.state_hi;
  state_lo_ = s.state_lo;
  cached_normal_ = s.cached_normal;
  has_cached_normal_ = s.has_cached_normal;
}

}  // namespace sqvae
