// Order statistics and the regression verdict of the fleet benchmark.
//
// Quartiles follow the default ("exclusive") method of Python's
// statistics.quantiles(values, n=4), so a result file re-analysed offline
// gives the same q1/q3 as the numbers printed here.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace ratt_bench {

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;

  double iqr() const { return q3 - q1; }
};

inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.min = values.front();
  s.max = values.back();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(method="exclusive"): cut point i of 4 sits at
  // position i * (n + 1) / 4 (1-based), interpolated between neighbours,
  // with the index clamped to [1, n - 1].
  const auto cut = [&](long i) {
    const long m = static_cast<long>(n) + 1;
    const long j = std::clamp(i * m / 4, 1L, static_cast<long>(n) - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (values[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
            values[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

enum class Better { kLower, kHigher };
enum class Verdict { kWithin, kRegressed, kUnresolved };

inline const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kWithin:
      return "within bound";
    case Verdict::kRegressed:
      return "regressed";
    case Verdict::kUnresolved:
      return "unresolved";
  }
  return "?";
}

/// Judge `cand` against `base`. The allowed worsening is `share` of the
/// base median, or `floor` in the metric's own unit when that is larger.
/// A spread (IQR of either side) wider than the allowance leaves the
/// comparison unresolved, unless every candidate run beats every base run.
inline Verdict judge(const Summary& base, const Summary& cand, Better better,
                     double share, double floor) {
  const double allowed = std::max(share * std::abs(base.median), floor);
  const bool all_better = better == Better::kLower ? cand.max < base.min
                                                   : cand.min > base.max;
  if (all_better) return Verdict::kWithin;
  if (std::max(base.iqr(), cand.iqr()) > allowed) return Verdict::kUnresolved;
  const double worse = better == Better::kLower ? cand.median - base.median
                                                : base.median - cand.median;
  return worse > allowed ? Verdict::kRegressed : Verdict::kWithin;
}

}  // namespace ratt_bench
