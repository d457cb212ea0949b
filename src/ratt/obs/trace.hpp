// ratt::obs — structured tracing: one TraceRecord per interesting unit of
// work (a prover handling a request, a verifier closing a round, a DoS
// request landing). Records flow into an injected TraceSink; the bundled
// RingRecorder keeps the last N in a bounded ring, and the exporters write
// JSONL / CSV with deterministic number formatting (shortest round-trip
// via std::to_chars), so same-seed runs produce byte-identical traces.
// The merge and both exporters run on the obs pool (pool.hpp); their
// output bytes never depend on its thread count.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace ratt::obs {

class Counter;

/// One span/event. String fields are short labels (SSO-sized in practice);
/// see docs/OBSERVABILITY.md for the kind/outcome vocabulary.
struct TraceRecord {
  double sim_time_ms = 0.0;     // when the unit of work completed
  std::uint64_t device_id = 0;  // which prover (0 for single-device runs)
  std::string kind;             // e.g. "prover.handle", "verifier.round"
  std::string outcome;          // e.g. "ok", "not-fresh", "missing"
  double prover_ms = 0.0;       // device time the prover spent
  double verifier_ms = 0.0;     // modeled verifier-side time
  std::uint64_t bytes = 0;      // wire bytes that triggered the work
  double energy_mj = 0.0;       // prover energy, from the power model
  double power_mw = 0.0;        // mean power over the span (0 = not
                                // power-scoped); "power.battery" records
                                // carry the burn estimate here instead
  std::uint64_t round_id = 0;   // causal round id (prof::make_round_id);
                                // 0 = not part of any round
  std::uint32_t attempt = 0;    // wire attempt within the round (1-based);
                                // 0 = not attempt-scoped

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceRecord& rec) = 0;

  /// Records this sink (or its downstream chain) has irrecoverably lost —
  /// ring evictions, mostly. Flight-recorder dumps consult this to state
  /// whether their window is complete.
  virtual std::uint64_t dropped_total() const { return 0; }
};

/// Records per block of the pooled work split: merge_traces copies its
/// output, and write_jsonl / write_csv format their text, in blocks of this
/// many records. Only the split depends on it, never the bytes.
inline constexpr std::size_t kExportBlockRecords = 4096;

/// Bounded ring recorder: the last `capacity` records survive; older ones
/// are overwritten (dropped() tells how many). `capacity` is a bound, not a
/// preallocation: the ring reserves address space for it but constructs no
/// record up front, so its resident memory grows with the records held.
class RingRecorder : public TraceSink {
 public:
  explicit RingRecorder(std::size_t capacity = 4096);

  void record(const TraceRecord& rec) override;

  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t dropped() const;
  std::uint64_t dropped_total() const override { return dropped(); }

  /// Optional metrics hook: inc()'d once per evicted record (the
  /// "obs.trace.dropped" counter by convention).
  void set_dropped_counter(Counter* counter) { dropped_counter_ = counter; }

  /// Live records (at most capacity()).
  std::size_t size() const { return ring_.size(); }

  /// The i-th surviving record, oldest first (i < size()); reads the ring
  /// in place, so snapshot()[i] == at(i) without the copy.
  const TraceRecord& at(std::size_t i) const {
    std::size_t slot = head_ + i;
    if (slot >= ring_.size()) slot -= ring_.size();
    return ring_[slot];
  }

  /// Surviving records, oldest first.
  std::vector<TraceRecord> snapshot() const;

 private:
  std::size_t capacity_;
  std::vector<TraceRecord> ring_;  // appended up to capacity_, then wraps
  std::size_t head_ = 0;     // oldest record (next overwrite); 0 until full
  std::uint64_t total_ = 0;  // ever recorded
  Counter* dropped_counter_ = nullptr;
};

/// A sink that forwards to two others (e.g. a ring for post-processing
/// plus a streaming exporter).
class TeeSink : public TraceSink {
 public:
  TeeSink(TraceSink& a, TraceSink& b) : a_(&a), b_(&b) {}
  void record(const TraceRecord& rec) override {
    a_->record(rec);
    b_->record(rec);
  }
  /// Sum of both branches' losses: an upper bound on records a reader of
  /// either branch may be missing.
  std::uint64_t dropped_total() const override {
    return a_->dropped_total() + b_->dropped_total();
  }

 private:
  TraceSink* a_;
  TraceSink* b_;
};

/// Deterministically merge per-shard trace streams (the sharded Swarm's
/// per-shard rings, read in place) into one canonical stream, ordered by
/// (sim_time_ms, device_id) with ties within one device keeping their
/// ring order — exactly a stable sort of the rings' concatenation. Each
/// device lives in exactly one shard and each shard's stream is
/// independent of scheduling, so the merged stream is byte-identical
/// (once exported) at any thread count — and, as long as no ring dropped
/// records, at any shard count, including the legacy single-queue layout.
///
/// A ring is not itself time-ordered (prover records carry the device's
/// MCU clock, verifier records the queue clock), so each ring's
/// (time, device, index) keys are sorted on the pool first, the sorted
/// keys are then k-way merged on the calling thread, and the records are
/// copied once, ring to output, in kExportBlockRecords blocks on the pool.
std::vector<TraceRecord> merge_traces(
    std::span<const RingRecorder* const> rings);

/// One JSON object per line, keys in schema order. Deterministic: shortest
/// round-trip doubles, no locale dependence. Blocks of kExportBlockRecords
/// records are formatted on the pool while the calling thread writes
/// finished blocks to `out` in order. If `out` throws (exceptions() set),
/// the pool's threads are stopped and joined before the exception leaves.
void write_jsonl(std::ostream& out, std::span<const TraceRecord> records);

/// CSV with a header row, same columns as the JSONL keys; same block
/// writer as write_jsonl.
void write_csv(std::ostream& out, std::span<const TraceRecord> records);

/// Single-record JSONL line (no trailing newline) — also the golden-file
/// format tests pin down.
std::string to_jsonl(const TraceRecord& rec);

}  // namespace ratt::obs
