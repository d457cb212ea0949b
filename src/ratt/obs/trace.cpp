#include "ratt/obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <condition_variable>
#include <mutex>

#include "ratt/obs/metrics.hpp"
#include "ratt/obs/pool.hpp"

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

// The merged order of the rings' `total` records, as pointers into the
// rings. Each ring's keys are sorted on the pool, one ring per ticket: a
// ring is not time-ordered, since prover records carry the device's MCU
// clock and verifier records the queue clock. The sorted keys are then
// k-way merged; same-(time, device) heads resolve by ring index, so the
// order equals a stable sort of the rings' concatenation: one canonical
// interleaving, since a device's records all come from one ring.
std::vector<const TraceRecord*> merged_order(
    std::span<const RingRecorder* const> rings, std::size_t total) {
  std::vector<std::vector<MergeKey>> keys(rings.size());
  parallel_for(rings.size(), tail_workers(rings.size()), [&](std::size_t r) {
    const RingRecorder& ring = *rings[r];
    std::vector<MergeKey>& k = keys[r];
    k.reserve(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const TraceRecord& rec = ring.at(i);
      k.push_back({rec.sim_time_ms, rec.device_id, i});
    }
    std::sort(k.begin(), k.end(), key_less);
  });

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
  std::vector<const TraceRecord*> order;
  order.reserve(total);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Cursor& c = heap.back();
    order.push_back(&rings[c.ring]->at(c.next->index));
    if (++c.next != c.end) {
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
  return order;
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

// One CSV row (no newline), columns in schema order.
void append_csv(std::string& out, const TraceRecord& rec,
                RecordDoubles& memo) {
  append_double(out, rec.sim_time_ms, memo.sim_time_ms);
  out += ',';
  append_u64(out, rec.device_id);
  out += ',';
  append_csv_field(out, rec.kind);
  out += ',';
  append_csv_field(out, rec.outcome);
  out += ',';
  append_double(out, rec.prover_ms, memo.prover_ms);
  out += ',';
  append_double(out, rec.verifier_ms, memo.verifier_ms);
  out += ',';
  append_u64(out, rec.bytes);
  out += ',';
  append_double(out, rec.energy_mj, memo.energy_mj);
  out += ',';
  append_double(out, rec.power_mw, memo.power_mw);
  out += ',';
  append_u64(out, rec.round_id);
  out += ',';
  append_u64(out, rec.attempt);
}

// The block writer behind both text exporters: the lines of `records`,
// built by append_line(text, record, memo), go to `out` in blocks of
// kExportBlockRecords records. The calling thread is one of the workers:
// it writes finished blocks in order while the others format blocks into
// a window of 2 x workers slots; a block waits for its slot until the
// block `window` places ahead of it has been written. The double memo
// starts fresh in every block — it is a pure cache, so the bytes do not
// depend on the split.
template <class AppendLine>
void write_blocks(std::ostream& out, std::span<const TraceRecord> records,
                  AppendLine append_line) {
  const std::size_t n = records.size();
  const auto format = [&](std::string& text, std::size_t block) {
    RecordDoubles memo;
    const std::size_t end = std::min(n, (block + 1) * kExportBlockRecords);
    for (std::size_t i = block * kExportBlockRecords; i < end; ++i) {
      append_line(text, records[i], memo);
      text += '\n';
    }
  };
  const auto put = [&out](const std::string& text) {
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  };
  const std::size_t blocks =
      (n + kExportBlockRecords - 1) / kExportBlockRecords;
  const std::size_t workers = tail_workers(blocks);
  if (workers <= 1) {
    std::string text;
    for (std::size_t b = 0; b < blocks; ++b) {
      text.clear();
      format(text, b);
      put(text);
    }
    return;
  }

  const std::size_t window = 2 * workers;
  constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);
  struct Slot {
    std::string text;
    std::size_t block;  // the block `text` holds; guarded by mu
  };
  std::vector<Slot> slots(window, Slot{{}, kEmpty});
  std::mutex mu;
  std::condition_variable cv;
  std::size_t written = 0;  // blocks written to out; guarded by mu
  bool stopped = false;     // a thread failed; guarded by mu
  run_pool(
      blocks, workers - 1,
      [&](std::size_t b) {
        Slot& slot = slots[b % window];
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return b < written + window || stopped; });
          if (stopped) return;
        }
        slot.text.clear();
        format(slot.text, b);
        {
          const std::lock_guard<std::mutex> lock(mu);
          slot.block = b;
        }
        cv.notify_all();
      },
      [&](const auto& /*work*/) {
        for (std::size_t b = 0; b < blocks; ++b) {
          const Slot& slot = slots[b % window];
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return slot.block == b || stopped; });
            if (stopped) return;  // run_pool rethrows the worker's error
          }
          put(slot.text);
          {
            const std::lock_guard<std::mutex> lock(mu);
            written = b + 1;
          }
          cv.notify_all();
        }
      },
      [&] {
        {
          const std::lock_guard<std::mutex> lock(mu);
          stopped = true;
        }
        cv.notify_all();
      });
}

}  // namespace

RingRecorder::RingRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  // Address space only: no record is constructed (or page touched) until
  // it is recorded.
  ring_.reserve(capacity_);
}

void RingRecorder::record(const TraceRecord& rec) {
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(rec);
    return;
  }
  if (dropped_counter_ != nullptr) dropped_counter_->inc();
  ring_[head_] = rec;
  if (++head_ == capacity_) head_ = 0;
}

std::uint64_t RingRecorder::dropped() const { return total_ - ring_.size(); }

std::vector<TraceRecord> RingRecorder::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) out.push_back(at(i));
  return out;
}

std::vector<TraceRecord> merge_traces(
    std::span<const RingRecorder* const> rings) {
  std::size_t total = 0;
  for (const RingRecorder* ring : rings) total += ring->size();
  if (total == 0) return {};
  // Default-constructing the output is the one serial step left (it
  // faults in every page), so one pool thread does it while the calling
  // thread sorts and merges the keys.
  std::vector<TraceRecord> out;
  std::vector<const TraceRecord*> order;
  run_pool(
      1, 1, [&](std::size_t) { out.resize(total); },
      [&](const auto& work) {
        order = merged_order(rings, total);
        work();
      },
      [] {});

  // Copy every record once, ring to output, one block per ticket.
  const std::size_t blocks =
      (total + kExportBlockRecords - 1) / kExportBlockRecords;
  parallel_for(blocks, tail_workers(blocks), [&](std::size_t b) {
    const std::size_t end = std::min(total, (b + 1) * kExportBlockRecords);
    for (std::size_t i = b * kExportBlockRecords; i < end; ++i) {
      out[i] = *order[i];
    }
  });
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
  write_blocks(out, records, append_jsonl);
}

void write_csv(std::ostream& out, std::span<const TraceRecord> records) {
  out << "sim_time_ms,device_id,kind,outcome,prover_ms,verifier_ms,bytes,"
         "energy_mj,power_mw,round_id,attempt\n";
  write_blocks(out, records, append_csv);
}

}  // namespace ratt::obs
