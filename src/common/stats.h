// Streaming statistics used by the metrics layer.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/types.h"

namespace drtp {

/// Welford streaming mean/variance with min/max tracking.
class RunningStat {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Half-width of the ~95% normal confidence interval on the mean.
  double ci95() const {
    if (count_ < 2) return 0.0;
    return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
  }

  void Merge(const RunningStat& o) {
    if (o.count_ == 0) return;
    if (count_ == 0) {
      *this = o;
      return;
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(o.count_);
    const double delta = o.mean_ - mean_;
    const double n = n1 + n2;
    mean_ += delta * n2 / n;
    m2_ += o.m2_ + delta * delta * n1 * n2 / n;
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
  }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Integrates a piecewise-constant signal over time; reports its
/// time-weighted average over the observed span. Used for "average number
/// of active connections" style metrics.
class TimeWeightedStat {
 public:
  /// Record that the signal takes `value` from time `now` onward.
  void Set(Time now, double value) {
    DRTP_CHECK(now >= last_time_ || !started_);
    if (started_) {
      integral_ += last_value_ * (now - last_time_);
    } else {
      start_time_ = now;
      started_ = true;
    }
    last_time_ = now;
    last_value_ = value;
  }

  /// Closes the window at `now` and returns the time-weighted mean.
  double Average(Time now) const {
    if (!started_ || now <= start_time_) return 0.0;
    DRTP_CHECK(now >= last_time_);
    const double total = integral_ + last_value_ * (now - last_time_);
    return total / (now - start_time_);
  }

  bool started() const { return started_; }
  double last_value() const { return last_value_; }

 private:
  bool started_ = false;
  Time start_time_ = 0.0;
  Time last_time_ = 0.0;
  double last_value_ = 0.0;
  double integral_ = 0.0;
};

/// Ratio counter: successes over trials, safe when empty.
struct Ratio {
  std::int64_t hits = 0;
  std::int64_t trials = 0;

  void Add(bool hit) {
    ++trials;
    if (hit) ++hits;
  }
  void AddMany(std::int64_t h, std::int64_t t) {
    DRTP_CHECK(h >= 0 && t >= h);
    hits += h;
    trials += t;
  }
  double value() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(hits) / static_cast<double>(trials);
  }
  void Merge(const Ratio& o) {
    hits += o.hits;
    trials += o.trials;
  }
};

}  // namespace drtp
