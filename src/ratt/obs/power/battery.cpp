#include "ratt/obs/power/battery.hpp"

#include <charconv>
#include <sstream>

namespace ratt::obs::power {

namespace {

void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

// Token scanner over one checkpoint line: whitespace-separated fields,
// doubles via from_chars (which round-trips to_chars exactly, including
// inf for never-touched window min/max).
class LineScanner {
 public:
  explicit LineScanner(const std::string& line) : line_(line) {}

  bool next(std::string& out) {
    while (pos_ < line_.size() && line_[pos_] == ' ') ++pos_;
    if (pos_ >= line_.size()) return false;
    const std::size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != ' ') ++pos_;
    out = line_.substr(start, pos_ - start);
    return true;
  }
  bool next_double(double& out) {
    std::string tok;
    if (!next(tok)) return false;
    const auto res =
        std::from_chars(tok.data(), tok.data() + tok.size(), out);
    return res.ec == std::errc{} && res.ptr == tok.data() + tok.size();
  }
  bool next_u64(std::uint64_t& out) {
    std::string tok;
    if (!next(tok)) return false;
    const auto res =
        std::from_chars(tok.data(), tok.data() + tok.size(), out);
    return res.ec == std::errc{} && res.ptr == tok.data() + tok.size();
  }

 private:
  const std::string& line_;
  std::size_t pos_ = 0;
};

}  // namespace

PowerMeter::PowerMeter(BatteryConfig config) : config_(config) {
  if (config_.capacity_mj <= 0.0) config_.capacity_mj = 1.0;
  if (config_.report_period_ms <= 0.0) config_.report_period_ms = 1.0;
  if (config_.burn_window_ms <= 0.0) config_.burn_window_ms = 1.0;
  if (config_.burn_history == 0) config_.burn_history = 1;
  if (config_.sleep_mw < 0.0) config_.sleep_mw = 0.0;
}

PowerMeter::DeviceState& PowerMeter::device(std::uint64_t device_id) {
  const auto it = devices_.find(device_id);
  if (it != devices_.end()) return it->second;
  return devices_.emplace(device_id, DeviceState(config_)).first->second;
}

double PowerMeter::device_soc(const DeviceState& dev) const {
  const double soc = 1.0 - dev.used_mj / config_.capacity_mj;
  return soc < 0.0 ? 0.0 : soc;
}

double PowerMeter::device_burn_mw(const DeviceState& dev) const {
  // Prefer the last CLOSED burn window (the open one is partial); mJ per
  // second over a window is exactly mW.
  const std::size_t n = dev.burn.size();
  double active = 0.0;
  if (n >= 2) {
    active = dev.burn.at(n - 2).sum_per_s(dev.burn.window_ms());
  } else if (n == 1) {
    active = dev.burn.at(0).sum_per_s(dev.burn.window_ms());
  }
  return config_.sleep_mw + active;
}

void PowerMeter::emit_report(std::uint64_t device_id, DeviceState& dev,
                             double t_ms) {
  ++reports_;
  if (sink_ == nullptr) return;
  const double soc = device_soc(dev);
  TraceRecord rec;
  rec.sim_time_ms = t_ms;
  rec.device_id = device_id;
  rec.kind = "power.battery";
  rec.outcome = soc <= 0.0 ? "depleted"
              : (config_.alert_soc > 0.0 && soc <= config_.alert_soc)
                  ? "low"
                  : "ok";
  rec.energy_mj = soc;  // gauge: state of charge as a fraction
  rec.power_mw = device_burn_mw(dev);
  sink_->record(rec);
}

void PowerMeter::sleep_to(DeviceState& dev, double t_ms) {
  if (t_ms > dev.last_ms) {
    const double mj = config_.sleep_mw * (t_ms - dev.last_ms) / 1000.0;
    dev.used_mj += mj;
    if (dev.used_mj > config_.capacity_mj) dev.used_mj = config_.capacity_mj;
    dev.last_ms = t_ms;
  }
}

void PowerMeter::advance(double t_ms) {
  // Walk the due boundaries in ascending (boundary, device_id) order —
  // one canonical interleaving no matter which device's record (or which
  // finish/checkpoint seam) triggered the drain. Sleep cuts land only on
  // boundaries and a device's own record times, so a segmented replay
  // accumulates the exact same float pieces as the straight run.
  for (;;) {
    double boundary = 0.0;
    bool due = false;
    for (const auto& [device_id, dev] : devices_) {
      if (dev.next_report_ms <= t_ms &&
          (!due || dev.next_report_ms < boundary)) {
        boundary = dev.next_report_ms;
        due = true;
      }
    }
    if (!due) return;
    for (auto& [device_id, dev] : devices_) {
      if (dev.next_report_ms != boundary) continue;
      sleep_to(dev, boundary);
      dev.burn.observe(boundary, 0.0);  // close quiet burn windows
      emit_report(device_id, dev, boundary);
      dev.next_report_ms += config_.report_period_ms;
    }
  }
}

void PowerMeter::record(const TraceRecord& rec) {
  // Active energy sources only: the prover's own work. verifier.round
  // carries the round's aggregate and would double-count; power.* gauge
  // records carry fractions, not energy.
  const bool active =
      rec.kind == "prover.handle" || rec.kind == "dos.request";
  if (!active) return;
  DeviceState& dev = device(rec.device_id);
  advance(rec.sim_time_ms);
  sleep_to(dev, rec.sim_time_ms);
  if (rec.energy_mj > 0.0) {
    dev.used_mj += rec.energy_mj;
    if (dev.used_mj > config_.capacity_mj) dev.used_mj = config_.capacity_mj;
    dev.burn.observe(rec.sim_time_ms, rec.energy_mj);
  }
}

void PowerMeter::finish(double now_ms) {
  advance(now_ms);
  for (auto& [device_id, dev] : devices_) {
    sleep_to(dev, now_ms);
  }
}

double PowerMeter::soc(std::uint64_t device_id) const {
  const auto it = devices_.find(device_id);
  return it == devices_.end() ? 1.0 : device_soc(it->second);
}

double PowerMeter::remaining_mj(std::uint64_t device_id) const {
  const auto it = devices_.find(device_id);
  if (it == devices_.end()) return config_.capacity_mj;
  const double left = config_.capacity_mj - it->second.used_mj;
  return left < 0.0 ? 0.0 : left;
}

double PowerMeter::burn_mw(std::uint64_t device_id) const {
  const auto it = devices_.find(device_id);
  return it == devices_.end() ? config_.sleep_mw
                              : device_burn_mw(it->second);
}

bool PowerMeter::depleted(std::uint64_t device_id) const {
  const auto it = devices_.find(device_id);
  return it != devices_.end() && device_soc(it->second) <= 0.0;
}

double PowerMeter::min_soc() const {
  double lo = 1.0;
  for (const auto& [device_id, dev] : devices_) {
    const double soc = device_soc(dev);
    if (soc < lo) lo = soc;
  }
  return lo;
}

std::size_t PowerMeter::depleted_count() const {
  std::size_t n = 0;
  for (const auto& [device_id, dev] : devices_) {
    if (device_soc(dev) <= 0.0) ++n;
  }
  return n;
}

void PowerMeter::checkpoint(std::ostream& out) const {
  std::string line;
  out << "ratt-power-checkpoint v1\n";
  line = "config ";
  append_double(line, config_.capacity_mj);
  line += ' ';
  append_double(line, config_.alert_soc);
  line += ' ';
  append_double(line, config_.report_period_ms);
  line += ' ';
  append_double(line, config_.sleep_mw);
  line += ' ';
  append_double(line, config_.burn_window_ms);
  line += ' ';
  append_u64(line, config_.burn_history);
  out << line << '\n';
  line = "reports ";
  append_u64(line, reports_);
  out << line << '\n';
  for (const auto& [device_id, dev] : devices_) {
    line = "device ";
    append_u64(line, device_id);
    line += ' ';
    append_double(line, dev.used_mj);
    line += ' ';
    append_double(line, dev.last_ms);
    line += ' ';
    append_double(line, dev.next_report_ms);
    out << line << '\n';
    const ts::RollupState st = dev.burn.state();
    line = "burn ";
    append_u64(line, st.evicted);
    line += ' ';
    append_u64(line, st.late);
    line += ' ';
    append_u64(line, st.total_count);
    line += ' ';
    append_double(line, st.total_sum);
    line += ' ';
    append_u64(line, st.started ? 1 : 0);
    line += ' ';
    append_u64(line, st.windows.size());
    out << line << '\n';
    for (const ts::WindowStats& w : st.windows) {
      line = "w ";
      append_u64(line, w.index);
      line += ' ';
      append_double(line, w.start_ms);
      line += ' ';
      append_u64(line, w.count);
      line += ' ';
      append_double(line, w.sum);
      line += ' ';
      append_double(line, w.min_raw);
      line += ' ';
      append_double(line, w.max_raw);
      out << line << '\n';
    }
  }
  out << "end\n";
}

bool PowerMeter::restore(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != "ratt-power-checkpoint v1") {
    return false;
  }
  if (!std::getline(in, line)) return false;
  {
    LineScanner sc(line);
    std::string tag;
    BatteryConfig cfg;
    if (!sc.next(tag) || tag != "config") return false;
    if (!sc.next_double(cfg.capacity_mj) || !sc.next_double(cfg.alert_soc) ||
        !sc.next_double(cfg.report_period_ms) ||
        !sc.next_double(cfg.sleep_mw) || !sc.next_double(cfg.burn_window_ms)) {
      return false;
    }
    std::uint64_t history = 0;
    if (!sc.next_u64(history)) return false;
    cfg.burn_history = static_cast<std::size_t>(history);
    // A checkpoint resumes only into the meter it came from.
    if (cfg.capacity_mj != config_.capacity_mj ||
        cfg.alert_soc != config_.alert_soc ||
        cfg.report_period_ms != config_.report_period_ms ||
        cfg.sleep_mw != config_.sleep_mw ||
        cfg.burn_window_ms != config_.burn_window_ms ||
        cfg.burn_history != config_.burn_history) {
      return false;
    }
  }
  // Everything after the config line parses into locals; the meter
  // changes only once the trailing "end" has arrived, so a rejected
  // checkpoint leaves it exactly as it was.
  std::uint64_t reports = 0;
  if (!std::getline(in, line)) return false;
  {
    LineScanner sc(line);
    std::string tag;
    if (!sc.next(tag) || tag != "reports" || !sc.next_u64(reports)) {
      return false;
    }
  }
  std::map<std::uint64_t, DeviceState> devices;
  while (std::getline(in, line)) {
    if (line == "end") {
      devices_ = std::move(devices);
      reports_ = reports;
      return true;
    }
    LineScanner sc(line);
    std::string tag;
    if (!sc.next(tag) || tag != "device") return false;
    std::uint64_t device_id = 0;
    if (!sc.next_u64(device_id)) return false;
    DeviceState& dev = devices.try_emplace(device_id, config_).first->second;
    if (!sc.next_double(dev.used_mj) || !sc.next_double(dev.last_ms) ||
        !sc.next_double(dev.next_report_ms)) {
      return false;
    }
    if (!std::getline(in, line)) return false;
    LineScanner burn_sc(line);
    ts::RollupState st;
    st.window_ms = config_.burn_window_ms;
    st.capacity = config_.burn_history;
    std::uint64_t started = 0;
    std::uint64_t windows = 0;
    if (!burn_sc.next(tag) || tag != "burn" || !burn_sc.next_u64(st.evicted) ||
        !burn_sc.next_u64(st.late) || !burn_sc.next_u64(st.total_count) ||
        !burn_sc.next_double(st.total_sum) || !burn_sc.next_u64(started) ||
        !burn_sc.next_u64(windows)) {
      return false;
    }
    st.started = started != 0;
    if (windows > st.capacity) return false;
    st.windows.reserve(windows);
    for (std::uint64_t i = 0; i < windows; ++i) {
      if (!std::getline(in, line)) return false;
      LineScanner wsc(line);
      ts::WindowStats w;
      if (!wsc.next(tag) || tag != "w" || !wsc.next_u64(w.index) ||
          !wsc.next_double(w.start_ms) || !wsc.next_u64(w.count) ||
          !wsc.next_double(w.sum) || !wsc.next_double(w.min_raw) ||
          !wsc.next_double(w.max_raw)) {
        return false;
      }
      st.windows.push_back(w);
    }
    dev.burn.restore(st);
  }
  return false;  // no trailing "end": truncated checkpoint
}

}  // namespace ratt::obs::power
