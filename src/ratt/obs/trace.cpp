#include "ratt/obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <charconv>

#include "ratt/obs/metrics.hpp"

namespace ratt::obs {

namespace {

// The last to_chars text of one double field. Trace doubles repeat heavily
// (merged times come in runs; per-kind costs take a handful of values), so
// the exporters convert each field only when it changes. Keyed by bit
// pattern, not value, so -0.0 and NaN keep their exact text.
struct DoubleText {
  std::uint64_t bits = 0;
  std::uint8_t len = 0;  // 0 = empty: to_chars never yields ""
  char text[32] = {};
};

void append_double(std::string& out, double v, DoubleText& memo) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  if (memo.len == 0 || memo.bits != bits) {
    const auto res =
        std::to_chars(memo.text, memo.text + sizeof(memo.text), v);
    memo.bits = bits;
    memo.len = static_cast<std::uint8_t>(res.ptr - memo.text);
  }
  out.append(memo.text, memo.len);
}

struct RecordDoubles {
  DoubleText sim_time_ms, prover_ms, verifier_ms, energy_mj, power_mw;
};

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

bool needs_json_escape(const std::string& s) {
  return std::any_of(s.begin(), s.end(), [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  });
}

// Labels are controlled vocabulary, but escape anyway so arbitrary
// outcomes can't break the framing. Full RFC-8259 coverage: every control
// character (< 0x20) must be escaped, not just newline.
void append_json_string(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  if (!needs_json_escape(s)) {
    out += s;
    out += '"';
    return;
  }
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// One JSONL line (no newline), keys in schema order — the single line
// builder behind to_jsonl and write_jsonl.
void append_jsonl(std::string& out, const TraceRecord& rec,
                  RecordDoubles& memo) {
  out += "{\"sim_time_ms\":";
  append_double(out, rec.sim_time_ms, memo.sim_time_ms);
  out += ",\"device_id\":";
  append_u64(out, rec.device_id);
  out += ",\"kind\":";
  append_json_string(out, rec.kind);
  out += ",\"outcome\":";
  append_json_string(out, rec.outcome);
  out += ",\"prover_ms\":";
  append_double(out, rec.prover_ms, memo.prover_ms);
  out += ",\"verifier_ms\":";
  append_double(out, rec.verifier_ms, memo.verifier_ms);
  out += ",\"bytes\":";
  append_u64(out, rec.bytes);
  out += ",\"energy_mj\":";
  append_double(out, rec.energy_mj, memo.energy_mj);
  out += ",\"power_mw\":";
  append_double(out, rec.power_mw, memo.power_mw);
  out += ",\"round_id\":";
  append_u64(out, rec.round_id);
  out += ",\"attempt\":";
  append_u64(out, rec.attempt);
  out += '}';
}

// Per-ring sort key: the merge order (time, then device), with the ring
// index making every key unique so std::sort reproduces a stable sort.
// `!=` then `<` on time, so -0.0 and +0.0 tie.
struct MergeKey {
  double time;
  std::uint64_t device;
  std::size_t index;
};

bool key_less(const MergeKey& a, const MergeKey& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.device != b.device) return a.device < b.device;
  return a.index < b.index;
}

// RFC-4180: quote a field whenever it holds a comma, a quote or a line
// break; embedded quotes double. Plain labels pass through unquoted, so
// existing goldens keep their byte-exact shape.
void append_csv_field(std::string& out, const std::string& s) {
  const bool needs_quoting =
      s.find_first_of(",\"\r\n") != std::string::npos;
  if (!needs_quoting) {
    out += s;
    return;
  }
  out += '"';
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

RingRecorder::RingRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void RingRecorder::record(const TraceRecord& rec) {
  if (size_ == ring_.size() && dropped_counter_ != nullptr) {
    dropped_counter_->inc();
  }
  ring_[head_] = rec;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++total_;
}

std::uint64_t RingRecorder::dropped() const { return total_ - size_; }

std::vector<TraceRecord> RingRecorder::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(at(i));
  return out;
}

std::vector<TraceRecord> merge_traces(
    std::span<const RingRecorder* const> rings) {
  // Sort each ring's keys: a ring is not time-ordered, since prover
  // records carry the device's MCU clock and verifier records the queue
  // clock.
  std::vector<std::vector<MergeKey>> keys(rings.size());
  std::size_t total = 0;
  for (std::size_t r = 0; r < rings.size(); ++r) {
    const RingRecorder& ring = *rings[r];
    keys[r].reserve(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const TraceRecord& rec = ring.at(i);
      keys[r].push_back({rec.sim_time_ms, rec.device_id, i});
    }
    std::sort(keys[r].begin(), keys[r].end(), key_less);
    total += ring.size();
  }

  // k-way merge over the sorted rings. Same-(time, device) heads resolve
  // by ring index, so the output equals a stable sort of the rings'
  // concatenation: one canonical interleaving, since a device's records
  // all come from one ring.
  struct Cursor {
    const MergeKey* next;
    const MergeKey* end;
    std::size_t ring;
  };
  const auto after = [](const Cursor& a, const Cursor& b) {
    if (a.next->time != b.next->time) return a.next->time > b.next->time;
    if (a.next->device != b.next->device) {
      return a.next->device > b.next->device;
    }
    return a.ring > b.ring;
  };
  std::vector<Cursor> heap;
  heap.reserve(rings.size());
  for (std::size_t r = 0; r < rings.size(); ++r) {
    if (!keys[r].empty()) {
      heap.push_back({keys[r].data(), keys[r].data() + keys[r].size(), r});
    }
  }
  std::make_heap(heap.begin(), heap.end(), after);

  std::vector<TraceRecord> out;
  out.reserve(total);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Cursor& c = heap.back();
    out.push_back(rings[c.ring]->at(c.next->index));
    if (++c.next != c.end) {
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
  return out;
}

std::string to_jsonl(const TraceRecord& rec) {
  std::string out;
  out.reserve(160);
  RecordDoubles memo;
  append_jsonl(out, rec, memo);
  return out;
}

void write_jsonl(std::ostream& out, std::span<const TraceRecord> records) {
  // Lines accumulate in one buffer that goes out in ~64 KB writes.
  constexpr std::size_t kFlushBytes = 64 * 1024;
  std::string buf;
  buf.reserve(kFlushBytes + 512);
  RecordDoubles memo;
  for (const auto& rec : records) {
    append_jsonl(buf, rec, memo);
    buf += '\n';
    if (buf.size() >= kFlushBytes) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void write_csv(std::ostream& out, std::span<const TraceRecord> records) {
  out << "sim_time_ms,device_id,kind,outcome,prover_ms,verifier_ms,bytes,"
         "energy_mj,power_mw,round_id,attempt\n";
  std::string line;
  RecordDoubles memo;
  for (const auto& rec : records) {
    line.clear();
    append_double(line, rec.sim_time_ms, memo.sim_time_ms);
    line += ',';
    append_u64(line, rec.device_id);
    line += ',';
    append_csv_field(line, rec.kind);
    line += ',';
    append_csv_field(line, rec.outcome);
    line += ',';
    append_double(line, rec.prover_ms, memo.prover_ms);
    line += ',';
    append_double(line, rec.verifier_ms, memo.verifier_ms);
    line += ',';
    append_u64(line, rec.bytes);
    line += ',';
    append_double(line, rec.energy_mj, memo.energy_mj);
    line += ',';
    append_double(line, rec.power_mw, memo.power_mw);
    line += ',';
    append_u64(line, rec.round_id);
    line += ',';
    append_u64(line, rec.attempt);
    out << line << '\n';
  }
}

}  // namespace ratt::obs
