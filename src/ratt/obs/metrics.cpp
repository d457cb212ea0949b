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

std::vector<double> default_latency_bounds_ms() {
  return {0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0};
}

void Registry::merge(const Registry& from) {
  if (&from == this) {
    throw std::invalid_argument(
        "obs::Registry::merge: cannot fold into itself");
  }
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
    for (std::size_t i = 0; i < h.buckets_.size(); ++i) {
      if (i != 0) out += ',';
      append_double(out, static_cast<double>(h.buckets_[i]));
    }
    out += "]\n";
  }
  return out;
}

}  // namespace ratt::obs
