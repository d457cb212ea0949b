// Hand-computed checks of the benchmark's order statistics and verdicts.
// Expected quartiles are what Python's statistics.quantiles(v, n=4)
// returns for the same inputs. Exits nonzero on the first mismatch.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "stats.hpp"

namespace {

using ratt_bench::Better;
using ratt_bench::judge;
using ratt_bench::summarize;
using ratt_bench::Verdict;

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::abs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

void expect_summary(const char* what, std::vector<double> v, double q1,
                    double median, double q3) {
  const ratt_bench::Summary s = summarize(std::move(v));
  char label[128];
  std::snprintf(label, sizeof label, "%s q1", what);
  expect_near(label, s.q1, q1);
  std::snprintf(label, sizeof label, "%s median", what);
  expect_near(label, s.median, median);
  std::snprintf(label, sizeof label, "%s q3", what);
  expect_near(label, s.q3, q3);
}

void expect_verdict(const char* what, Verdict got, Verdict want) {
  if (got != want) {
    std::fprintf(stderr, "FAIL %s: got %s, want %s\n", what,
                 ratt_bench::to_string(got), ratt_bench::to_string(want));
    ++failures;
  }
}

}  // namespace

int main() {
  // n = 5, the benchmark's repetition count; input order must not matter.
  expect_summary("n5", {5, 1, 4, 2, 3}, 1.5, 3.0, 4.5);
  expect_summary("ties", {7, 2, 2, 7, 2}, 2.0, 2.0, 7.0);
  expect_summary("n4", {4, 3, 2, 1}, 1.25, 2.5, 3.75);
  expect_summary("n10", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25);
  // Two points: the exclusive method extrapolates past both ends.
  expect_summary("n2", {3, 1}, 0.5, 2.0, 3.5);
  expect_summary("n1", {7}, 7.0, 7.0, 7.0);
  const ratt_bench::Summary wide = summarize({0.8, 0.9, 1.0, 1.1, 1.2});
  expect_near("min", wide.min, 0.8);
  expect_near("max", wide.max, 1.2);

  const auto flat = [](double v) { return summarize({v, v, v, v, v}); };
  expect_verdict("5% slower, 10% bound",
                 judge(flat(1.0), flat(1.05), Better::kLower, 0.10, 0.0),
                 Verdict::kWithin);
  expect_verdict("20% slower, 10% bound",
                 judge(flat(1.0), flat(1.2), Better::kLower, 0.10, 0.0),
                 Verdict::kRegressed);
  // IQR 0.3 against an allowance of 0.1: the spread hides any verdict.
  expect_verdict("spread wider than bound",
                 judge(wide, flat(1.0), Better::kLower, 0.10, 0.0),
                 Verdict::kUnresolved);
  expect_verdict("every run better despite spread",
                 judge(wide, flat(0.5), Better::kLower, 0.10, 0.0),
                 Verdict::kWithin);
  expect_verdict("throughput down 15%",
                 judge(flat(100), flat(85), Better::kHigher, 0.10, 0.0),
                 Verdict::kRegressed);
  expect_verdict("throughput up",
                 judge(flat(100), flat(130), Better::kHigher, 0.10, 0.0),
                 Verdict::kWithin);
  // 10 ms -> 25 ms is +150%, but under the 20 ms absolute floor.
  expect_verdict("absolute floor",
                 judge(flat(0.010), flat(0.025), Better::kLower, 0.10, 0.02),
                 Verdict::kWithin);
  expect_verdict("past absolute floor",
                 judge(flat(0.010), flat(0.035), Better::kLower, 0.10, 0.02),
                 Verdict::kRegressed);

  if (failures != 0) {
    std::fprintf(stderr, "stats_test: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "stats_test: ok\n");
  return 0;
}
