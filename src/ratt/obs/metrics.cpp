#include "ratt/obs/metrics.hpp"

#include <charconv>
#include <stdexcept>

namespace ratt::obs {

namespace {

// Shortest round-trip double — deterministic across runs and locales.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

void Counter::merge(const Counter& from) {
  if (from.count() == 0) return;
  value_.store(value() + from.value(), std::memory_order_relaxed);
  count_.store(count() + from.count(), std::memory_order_relaxed);
}

void Counter::reset() {
  value_.store(0.0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

void Gauge::merge(const Gauge& from) {
  if (from.sets() == 0) return;
  value_.store(from.value(), std::memory_order_relaxed);
  sets_.store(sets() + from.sets(), std::memory_order_relaxed);
  detail::atomic_max(max_, from.max_.load(std::memory_order_relaxed));
}

void Gauge::reset() {
  value_.store(0.0, std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  sets_.store(0, std::memory_order_relaxed);
}

void Histogram::merge(const Histogram& from) {
  if (from.count() == 0) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].fetch_add(from.buckets_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  count_.store(count() + from.count(), std::memory_order_relaxed);
  sum_.store(sum() + from.sum(), std::memory_order_relaxed);
  detail::atomic_min(min_, from.min_.load(std::memory_order_relaxed));
  detail::atomic_max(max_, from.max_.load(std::memory_order_relaxed));
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double> default_latency_bounds_ms() {
  return {0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0};
}

const Counter* Registry::find_counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::merge(const Registry& from) {
  if (&from == this) {
    throw std::invalid_argument(
        "obs::Registry::merge: cannot fold into itself");
  }
  const std::scoped_lock lock(mutex_, from.mutex_);
  // Check every histogram pair first, so a mismatch changes nothing.
  for (const auto& [name, h] : from.histograms_) {
    const auto it = histograms_.find(name);
    if (it != histograms_.end() && it->second.bounds() != h.bounds()) {
      throw std::invalid_argument("obs::Registry::merge: histogram '" + name +
                                  "' has different bounds");
    }
  }
  for (const auto& [name, c] : from.counters_) {
    counters_.try_emplace(name).first->second.merge(c);
  }
  for (const auto& [name, g] : from.gauges_) {
    gauges_.try_emplace(name).first->second.merge(g);
  }
  for (const auto& [name, h] : from.histograms_) {
    histograms_.try_emplace(name, h.bounds()).first->second.merge(h);
  }
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

std::string Registry::to_text() const {
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += "counter ";
    out += name;
    out += " value=";
    append_double(out, c.value());
    out += " count=";
    append_double(out, static_cast<double>(c.count()));
    out += '\n';
  }
  for (const auto& [name, g] : gauges_) {
    out += "gauge ";
    out += name;
    out += " value=";
    append_double(out, g.value());
    out += " max=";
    append_double(out, g.max());
    out += '\n';
  }
  for (const auto& [name, h] : histograms_) {
    out += "histogram ";
    out += name;
    out += " count=";
    append_double(out, static_cast<double>(h.count()));
    out += " sum=";
    append_double(out, h.sum());
    out += " min=";
    append_double(out, h.min());
    out += " max=";
    append_double(out, h.max());
    out += " buckets=[";
    const std::vector<std::uint64_t> buckets = h.buckets();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (i != 0) out += ',';
      append_double(out, static_cast<double>(buckets[i]));
    }
    out += "]\n";
  }
  return out;
}

}  // namespace ratt::obs
