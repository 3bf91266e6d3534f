// Small statistics helpers used by protocol logic (bandwidth trimming) and by the
// experiment harness (CDFs, percentiles).

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace bullet {

// Welford-style running mean / variance.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Population variance / standard deviation (the Bullet' trimming rule compares
  // individual senders against the set they belong to, so population form is right).
  double variance() const;
  double stddev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Percentile with linear interpolation; q in [0, 1]. Sorts a copy. Returns 0 for
// empty input.
double Percentile(std::vector<double> values, double q);

// Same, for input the caller already sorted ascending — use when reading several
// percentiles off one series to sort once instead of per call.
double PercentileSorted(const std::vector<double>& sorted, double q);

// Exponentially weighted moving average with a configurable gain.
class Ewma {
 public:
  explicit Ewma(double gain) : gain_(gain) {}

  void Add(double x);
  double value() const { return value_; }
  bool has_value() const { return initialized_; }

 private:
  double gain_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace bullet

#endif  // SRC_COMMON_STATS_H_
