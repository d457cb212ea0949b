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
// Single-writer contract: an instrument has one writer at a time, and
// nothing here synchronizes. Two threads writing one instrument, or
// registering into one Registry, is a data race (ThreadSanitizer
// reports it).
//
// The sharded Swarm keeps the contract by giving every shard a private
// Registry: a shard's instruments are written only by the worker that
// drains that shard. After each drain the caller folds the shards into
// its own registry in shard order (Registry::merge, then reset); the
// pool's join orders every shard write before that fold, and it is the
// only synchronization the metrics need. Every instrument is cache-line
// aligned (and a histogram's buckets own their lines), so two shards'
// instruments never share a line. Folded in a fixed order, the double
// sums are deterministic at any thread count. A folded gauge takes the
// value of the last registry, in fold order, that set it since its last
// reset; its max and set count cover every registry.
//
// Naming convention (docs/OBSERVABILITY.md): dot-separated lowercase
// "<layer>.<subject>[.<detail>]", e.g. "prover.outcome.not-fresh",
// "queue.backlog", "session.round_trip_ms".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ratt::obs {

/// Alignment of every instrument: writers on different threads (shards)
/// never touch the same cache line.
inline constexpr std::size_t kCacheLine = 64;

namespace detail {

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
class alignas(kCacheLine) Counter {
 public:
  void inc(double v = 1.0) {
    value_ += v;
    ++count_;
  }

  double value() const { return value_; }
  std::uint64_t count() const { return count_; }

 private:
  friend class Registry;
  void merge(const Counter& from) {
    value_ += from.value_;
    count_ += from.count_;
  }
  void reset() { *this = Counter{}; }

  double value_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Last-write-wins value with a high-water mark (useful for backlogs and
/// queue depths, where the peak matters as much as the final value).
class alignas(kCacheLine) Gauge {
 public:
  void set(double v) {
    value_ = v;
    ++sets_;
    max_ = std::max(max_, v);
  }

  double value() const { return value_; }
  /// High-water mark; 0.0 before the first set() (never -inf), matching
  /// Histogram::min/max on an empty instrument.
  double max() const { return sets_ == 0 ? 0.0 : max_; }
  std::uint64_t sets() const { return sets_; }

 private:
  friend class Registry;
  void merge(const Gauge& from) {
    if (from.sets_ == 0) return;  // `from` leaves the value alone
    value_ = from.value_;
    sets_ += from.sets_;
    max_ = std::max(max_, from.max_);
  }
  void reset() { *this = Gauge{}; }

  double value_ = 0.0;
  double max_ = -std::numeric_limits<double>::infinity();
  std::uint64_t sets_ = 0;
};

/// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]
/// (first matching bound); observations above the last bound land in the
/// overflow bucket, so buckets().size() == bounds().size() + 1.
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
    ++buckets_[i];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Copy of the bucket counts.
  std::vector<std::uint64_t> buckets() const {
    return {buckets_.begin(), buckets_.end()};
  }

 private:
  friend class Registry;
  /// Bounds must be equal (Registry::merge checks before folding).
  void merge(const Histogram& from) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += from.buckets_[i];
    }
    count_ += from.count_;
    sum_ += from.sum_;
    min_ = std::min(min_, from.min_);
    max_ = std::max(max_, from.max_);
  }
  void reset() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
  }

  std::vector<double> bounds_;
  std::vector<std::uint64_t, detail::LineAllocator<std::uint64_t>> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Default histogram bounds for prover-side latencies: spans the one-block
/// MAC check (~0.017 ms Speck) through a full 512 KB measurement (~754 ms)
/// and the long tail beyond.
std::vector<double> default_latency_bounds_ms();

/// Instrument registry. Instruments live as long as the registry; the
/// node-based containers guarantee stable addresses, so cached references
/// survive later registrations. Registration allocates only when it
/// creates an instrument. The whole-map accessors, to_text(), merge() and
/// reset() read or write every instrument: no writer may be active.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. Registration is the only allocating step.
  Counter& counter(std::string_view name) {
    return get_or_create(counters_, name);
  }
  Gauge& gauge(std::string_view name) { return get_or_create(gauges_, name); }
  Histogram& histogram(std::string_view name) {
    return get_or_create(histograms_, name, DefaultBounds{});
  }
  Histogram& histogram(std::string_view name, std::vector<double> bounds) {
    return get_or_create(histograms_, name, std::move(bounds));
  }

  /// Lookup without creation (nullptr if absent) — for report writers.
  const Counter* find_counter(std::string_view name) const {
    return find(counters_, name);
  }
  const Gauge* find_gauge(std::string_view name) const {
    return find(gauges_, name);
  }
  const Histogram* find_histogram(std::string_view name) const {
    return find(histograms_, name);
  }

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
  /// Converts to the default bounds only when a histogram is built, so a
  /// lookup that hits allocates nothing.
  struct DefaultBounds {
    operator std::vector<double>() const { return default_latency_bounds_ms(); }
  };

  /// A hit builds no key and no constructor argument.
  template <class Map, class... Args>
  static typename Map::mapped_type& get_or_create(Map& map,
                                                  std::string_view name,
                                                  Args&&... args) {
    const auto it = map.lower_bound(name);
    if (it != map.end() && it->first == name) return it->second;
    return map
        .try_emplace(it, std::string(name), std::forward<Args>(args)...)
        ->second;
  }

  template <class Map>
  static const typename Map::mapped_type* find(const Map& map,
                                               std::string_view name) {
    const auto it = map.find(name);
    return it == map.end() ? nullptr : &it->second;
  }

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace ratt::obs
