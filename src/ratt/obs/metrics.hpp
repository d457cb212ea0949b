// ratt::obs — metrics registry: counters, gauges and fixed-bucket
// histograms for the simulation's observability layer.
//
// Design constraints (mirrored from what a real prover-side telemetry
// agent could afford):
//   * zero-alloc on the hot path — instruments are registered once (the
//     only allocating step) and callers cache the returned reference;
//     inc()/set()/observe() touch plain members only,
//   * no global state — a Registry is an injected instance, so two swarms
//     (or two test cases) never share instruments,
//   * header-mostly — only the export/snapshot/merge helpers live in a
//     .cpp.
//
// Concurrency contract: registration (Registry::counter/gauge/histogram,
// get-or-create) is serialized by a mutex, and the instruments themselves
// are thread-safe — inc()/set()/observe() use relaxed atomics, so writers
// on several threads never race and never lose an update. Counts,
// histogram buckets, min and max (and gauge high-waters) are then exact
// at any thread count, but the double sums (counter value(), histogram
// sum()) are exact only to rounding: float addition is not associative,
// so their last bits follow the order the additions land in, and a gauge
// keeps whichever set() landed last.
//
// The sharded Swarm therefore never lets two threads write one
// instrument: every shard records into a private Registry, and after
// each drain the shards are folded into the caller's registry in shard
// order (Registry::merge, then reset). Every instrument is cache-line
// aligned (and a histogram's buckets own their lines), so two shards'
// instruments never share a line either. Folded in a fixed order, the
// sums are deterministic at any thread count. A folded gauge takes the
// value of the last registry, in fold order, that set it since its last
// reset; its max and set count cover every registry.
//
// Naming convention (docs/OBSERVABILITY.md): dot-separated lowercase
// "<layer>.<subject>[.<detail>]", e.g. "prover.outcome.not-fresh",
// "queue.backlog", "session.round_trip_ms".
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <string>
#include <string_view>
#include <vector>

namespace ratt::obs {

/// Alignment of every instrument: writers on different threads (shards)
/// never touch the same cache line.
inline constexpr std::size_t kCacheLine = 64;

namespace detail {

/// Relaxed fetch-max for doubles (no fetch_max in the standard): CAS loop
/// that only writes when `v` actually raises the stored value.
inline void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

inline void atomic_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

/// Allocates whole, aligned cache lines, so nothing else lives on the
/// lines a histogram's bucket array writes.
template <class T>
struct LineAllocator {
  using value_type = T;
  LineAllocator() = default;
  template <class U>
  LineAllocator(const LineAllocator<U>&) noexcept {}

  static std::size_t line_bytes(std::size_t n) {
    return (n * sizeof(T) + kCacheLine - 1) / kCacheLine * kCacheLine;
  }
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(line_bytes(n), std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, line_bytes(n), std::align_val_t{kCacheLine});
  }
  friend bool operator==(const LineAllocator&, const LineAllocator&) {
    return true;
  }
};

}  // namespace detail

class Registry;

/// Monotonically accumulating value. `value()` is the sum of all inc()
/// arguments (so fractional quantities — milliseconds, millijoules —
/// accumulate as given); `count()` is the number of inc() calls.
/// Thread-safe: concurrent inc() never loses an update, though a
/// fractional value() is then exact only to rounding.
class alignas(kCacheLine) Counter {
 public:
  void inc(double v = 1.0) {
    value_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  // Registry::merge / reset: no writer may be active on either side.
  void merge(const Counter& from);
  void reset();

  std::atomic<double> value_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

/// Last-write-wins value with a high-water mark (useful for backlogs and
/// queue depths, where the peak matters as much as the final value).
/// Thread-safe; max() — a max over all set values — is deterministic even
/// under concurrent setters, while value() is whichever write landed last.
class alignas(kCacheLine) Gauge {
 public:
  void set(double v) {
    value_.store(v, std::memory_order_relaxed);
    sets_.fetch_add(1, std::memory_order_relaxed);
    detail::atomic_max(max_, v);
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  /// High-water mark; 0.0 before the first set() (never -inf), matching
  /// Histogram::min/max on an empty instrument.
  double max() const {
    return sets_.load(std::memory_order_relaxed) == 0
               ? 0.0
               : max_.load(std::memory_order_relaxed);
  }
  std::uint64_t sets() const {
    return sets_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  void merge(const Gauge& from);
  void reset();

  std::atomic<double> value_{0.0};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::atomic<std::uint64_t> sets_{0};
};

/// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]
/// (first matching bound); observations above the last bound land in the
/// overflow bucket, so buckets().size() == bounds().size() + 1.
/// observe() is thread-safe; bucket counts, count, min and max are exact
/// under concurrency, while sum is exact only to rounding when several
/// threads observe (its last bits follow the interleaving).
class alignas(kCacheLine) Histogram {
 public:
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) {
    // First bound >= v keeps the documented inclusive-upper-bound
    // semantics (v == bound lands in that bucket); binary search instead
    // of a linear scan, since bounds_ is sorted by construction.
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin());
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    detail::atomic_min(min_, v);
    detail::atomic_max(max_, v);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  double min() const {
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  }
  double max() const {
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Snapshot of the bucket counts (a copy: the live array is atomic).
  std::vector<std::uint64_t> buckets() const {
    std::vector<std::uint64_t> out(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  friend class Registry;
  /// Bounds must be equal (Registry::merge checks before folding).
  void merge(const Histogram& from);
  void reset();

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>,
              detail::LineAllocator<std::atomic<std::uint64_t>>>
      buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Default histogram bounds for prover-side latencies: spans the one-block
/// MAC check (~0.017 ms Speck) through a full 512 KB measurement (~754 ms)
/// and the long tail beyond.
std::vector<double> default_latency_bounds_ms();

/// Instrument registry. Instruments live as long as the registry; the
/// node-based containers guarantee stable addresses, so cached references
/// survive later registrations. Registration and name lookup are
/// mutex-serialized and allocate only when they create an instrument;
/// the returned instruments are safe to update from any thread without
/// the lock. The whole-map accessors, to_text(), merge() and reset() are
/// for quiescent registries — do not call them while workers may
/// register or record.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. Registration is the only allocating step.
  Counter& counter(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.lower_bound(name);
    if (it != counters_.end() && it->first == name) return it->second;
    return counters_.try_emplace(it, std::string(name))->second;
  }
  Gauge& gauge(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = gauges_.lower_bound(name);
    if (it != gauges_.end() && it->first == name) return it->second;
    return gauges_.try_emplace(it, std::string(name))->second;
  }
  Histogram& histogram(std::string_view name) {
    // Build the default bounds vector only on the miss path — the common
    // repeated lookup must not allocate.
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.lower_bound(name);
    if (it != histograms_.end() && it->first == name) return it->second;
    return histograms_
        .try_emplace(it, std::string(name), default_latency_bounds_ms())
        ->second;
  }
  Histogram& histogram(std::string_view name, std::vector<double> bounds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.lower_bound(name);
    if (it != histograms_.end() && it->first == name) return it->second;
    return histograms_.try_emplace(it, std::string(name), std::move(bounds))
        ->second;
  }

  /// Lookup without creation (nullptr if absent) — for report writers.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  /// Fold `from` into this registry, creating what is missing: counter
  /// values and counts, histogram buckets, counts and sums add; min, max
  /// and gauge high-waters take the extreme; set counts add, and a gauge
  /// `from` set (since its last reset) takes `from`'s value. Folding
  /// several registries in a fixed order gives the same result at any
  /// thread count. Throws std::invalid_argument, before changing
  /// anything, if a histogram of both has different bounds or if `from`
  /// is this registry.
  void merge(const Registry& from);

  /// Zero every instrument in place: registrations — and the references
  /// callers cached — stay valid, so a merged-then-reset registry can be
  /// folded again without counting anything twice.
  void reset();

  /// Human-readable dump, one instrument per line, name-sorted (stable —
  /// suitable for golden comparisons in tests).
  std::string to_text() const;

 private:
  // Guards the maps' structure only; the instruments inside stay
  // lock-free. mutable so the const find_* lookups can serialize against
  // concurrent registration.
  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace ratt::obs
