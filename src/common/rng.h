// Deterministic random number generation.
//
// Every stochastic component of the library takes an explicit seed so that
// simulation runs are reproducible and scenario replay is bitwise
// deterministic. Rng wraps a fixed engine (never the platform default, whose
// sequences differ across standard libraries would not matter here but whose
// seeding via random_device would).
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"

namespace drtp {

/// Seedable random source with the distributions the simulator needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    DRTP_CHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi). Requires lo <= hi.
  double UniformReal(double lo, double hi) {
    DRTP_CHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Exponentially distributed value with the given rate (mean 1/rate).
  double Exponential(double rate) {
    DRTP_CHECK(rate > 0.0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// True with probability p.
  bool Bernoulli(double p) {
    DRTP_CHECK(p >= 0.0 && p <= 1.0);
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Uniformly chosen index into a container of the given size (> 0).
  std::size_t Index(std::size_t size) {
    DRTP_CHECK(size > 0);
    return static_cast<std::size_t>(
        UniformInt(0, static_cast<std::int64_t>(size) - 1));
  }

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& Pick(std::span<const T> items) {
    return items[Index(items.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[Index(i)]);
    }
  }

  /// Derives an independent child seed; used to split one experiment seed
  /// into per-component streams without correlation.
  std::uint64_t Fork() { return engine_(); }

  /// Raw 64-bit draw.
  std::uint64_t Next() { return engine_(); }

  /// Serializes the exact stream position (std::mt19937_64's portable
  /// text format) so a daemon snapshot can restore a scheme's RNG
  /// mid-stream and draw the identical continuation.
  std::string SaveState() const {
    std::ostringstream os;
    os << engine_;
    return os.str();
  }

  /// Restores SaveState() output. Malformed text is a caller bug (the
  /// snapshot loader validates file integrity before this runs).
  void LoadState(const std::string& state) {
    std::istringstream is(state);
    is >> engine_;
    DRTP_CHECK_MSG(!is.fail(), "malformed Rng state");
  }

 private:
  std::mt19937_64 engine_;
};

/// Randomised exponential backoff (Banerjea's random delay): the wait
/// before retry n + 1 is base · 2^n · U[0.5, 1.5), n = 0 for the first.
/// One draw from `rng`; the jitter decorrelates retries after a burst.
inline double JitteredBackoff(Rng& rng, double base, int n) {
  const double jitter = rng.UniformReal(0.5, 1.5);
  return base * std::ldexp(1.0, n) * jitter;
}

}  // namespace drtp
