#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace gasched::util {

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64_next(sm);
}

Xoshiro256StarStar::result_type Xoshiro256StarStar::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256StarStar::long_jump() noexcept {
  static constexpr std::uint64_t kLongJump[] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t jump : kLongJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (*this)();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

Rng::Rng(std::uint64_t seed) noexcept : gen_(seed), seed_(seed) {}

Rng Rng::split(std::uint64_t stream) const noexcept {
  // Mix (seed, stream) through SplitMix64 twice to derive a well-separated
  // child seed; identical (seed, stream) pairs always yield the same child.
  std::uint64_t s = seed_ ^ (0xA0761D6478BD642FULL + stream);
  const std::uint64_t a = splitmix64_next(s);
  const std::uint64_t b = splitmix64_next(s);
  return Rng(a ^ rotl(b, 23) ^ stream);
}

std::uint64_t Rng::next_u64() noexcept { return gen_(); }

double Rng::uniform01() noexcept {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(gen_());  // full range
  // Rejection sampling: draw until the value falls in the largest multiple
  // of `range` representable in 64 bits. That limit is at least ~range + 1,
  // so only a draw above ~range can be rejected, and only such a draw pays
  // the division computing it.
  std::uint64_t draw = gen_();
  if (draw > ~range) {
    const std::uint64_t limit =
        (~std::uint64_t{0}) - (~std::uint64_t{0}) % range;
    while (draw >= limit) draw = gen_();
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   draw % range);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform01();
  while (u1 <= 0.0) u1 = uniform01();
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::normal_truncated(double mean, double stddev, double lo) noexcept {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double v = normal(mean, stddev);
    if (v >= lo) return v;
  }
  // Pathological (lo far into the upper tail): reflect to guarantee progress.
  return lo + std::abs(normal(0.0, stddev));
}

double Rng::exponential(double mean) noexcept {
  double u = uniform01();
  while (u <= 0.0) u = uniform01();
  return -mean * std::log(u);
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: multiply uniforms until the product drops below e^-mean.
    const double threshold = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform01();
    } while (p > threshold);
    return k - 1;
  }
  // PTRS (Hörmann 1993) transformed rejection for large means.
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = uniform01() - 0.5;
    const double v = uniform01();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    const double log_v = std::log(v * inv_alpha / (a / (us * us) + b));
    // lgamma_r, not std::lgamma: glibc's lgamma also writes the global
    // `signgam`, a data race when pool workers sample Poisson sizes at
    // once. Same value; the sign (always + for k ≥ 0) is not needed.
    int sign = 0;
    const double rhs = k * std::log(mean) - mean - ::lgamma_r(k + 1.0, &sign);
    if (log_v <= rhs) return static_cast<std::uint64_t>(k);
  }
}

std::size_t Rng::index(std::size_t n) noexcept {
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n - 1)));
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

}  // namespace gasched::util
