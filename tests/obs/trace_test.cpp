// RingRecorder semantics and the JSONL / CSV exporters, including the
// golden-line format the schema in docs/OBSERVABILITY.md pins down.
#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "ratt/obs/metrics.hpp"
#include "ratt/obs/trace.hpp"

namespace ratt::obs {
namespace {

TraceRecord rec(double t, std::uint64_t dev, std::string kind,
                std::string outcome) {
  TraceRecord r;
  r.sim_time_ms = t;
  r.device_id = dev;
  r.kind = std::move(kind);
  r.outcome = std::move(outcome);
  return r;
}

TEST(RingRecorder, KeepsEverythingUnderCapacity) {
  RingRecorder ring(4);
  ring.record(rec(1.0, 0, "a", "ok"));
  ring.record(rec(2.0, 0, "b", "ok"));
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].kind, "a");
  EXPECT_EQ(snap[1].kind, "b");
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(RingRecorder, OverwritesOldestWhenFull) {
  RingRecorder ring(3);
  for (int i = 0; i < 5; ++i) {
    ring.record(rec(static_cast<double>(i), 0, "e", "ok"));
  }
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_DOUBLE_EQ(snap[0].sim_time_ms, 2.0);  // oldest survivor
  EXPECT_DOUBLE_EQ(snap[2].sim_time_ms, 4.0);
  EXPECT_EQ(ring.total_recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);
}

// Rings grow on demand: capacity() is the requested bound, not what is
// held, and size() counts only what was recorded.
TEST(RingRecorder, CapacityIsTheRequestedBound) {
  for (const std::size_t capacity : {1u, 3u, 4096u, 1u << 16}) {
    RingRecorder ring(capacity);
    EXPECT_EQ(ring.capacity(), capacity);
    EXPECT_EQ(ring.size(), 0u);
    ring.record(rec(1.0, 0, "e", "ok"));
    EXPECT_EQ(ring.capacity(), capacity);
    EXPECT_EQ(ring.size(), 1u);
  }
  EXPECT_EQ(RingRecorder(0).capacity(), 1u);
}

TEST(RingRecorder, DroppedCounterTalliesEvictions) {
  Registry registry;
  Counter& dropped = registry.counter("obs.trace.dropped");
  std::uint64_t evicted = 0;
  for (const std::size_t capacity : {1u, 3u, 4096u}) {
    for (const std::size_t n : {capacity, capacity + 1, 3 * capacity + 2}) {
      RingRecorder ring(capacity);
      ring.set_dropped_counter(&dropped);
      for (std::size_t i = 0; i < n; ++i) ring.record(rec(1.0, 0, "e", "ok"));
      evicted += n - capacity;
      EXPECT_EQ(ring.dropped(), n - capacity);
      EXPECT_EQ(dropped.count(), evicted)
          << "capacity=" << capacity << " n=" << n;
    }
  }
}

TEST(TeeSink, ForwardsToBoth) {
  RingRecorder a(8);
  RingRecorder b(8);
  TeeSink tee(a, b);
  tee.record(rec(1.0, 0, "x", "ok"));
  EXPECT_EQ(a.total_recorded(), 1u);
  EXPECT_EQ(b.total_recorded(), 1u);
}

// Golden line: the exact JSONL schema. A change here is a schema change
// and must be reflected in docs/OBSERVABILITY.md.
TEST(JsonlExport, GoldenRecord) {
  TraceRecord r;
  r.sim_time_ms = 12.5;
  r.device_id = 3;
  r.kind = "prover.handle";
  r.outcome = "ok";
  r.prover_ms = 94.6;
  r.verifier_ms = 0.0;
  r.bytes = 38;
  r.energy_mj = 0.68112;
  r.power_mw = 7.2;
  r.round_id = 0xdeadbeef;
  r.attempt = 2;
  EXPECT_EQ(to_jsonl(r),
            "{\"sim_time_ms\":12.5,\"device_id\":3,"
            "\"kind\":\"prover.handle\",\"outcome\":\"ok\","
            "\"prover_ms\":94.6,\"verifier_ms\":0,\"bytes\":38,"
            "\"energy_mj\":0.68112,\"power_mw\":7.2,"
            "\"round_id\":3735928559,\"attempt\":2}");
}

TEST(JsonlExport, EscapesStrings) {
  TraceRecord r;
  r.kind = "a\"b";
  r.outcome = "c\\d";
  const std::string line = to_jsonl(r);
  EXPECT_NE(line.find("\"a\\\"b\""), std::string::npos);
  EXPECT_NE(line.find("\"c\\\\d\""), std::string::npos);
}

TEST(JsonlExport, OneLinePerRecord) {
  std::ostringstream out;
  const std::vector<TraceRecord> records = {rec(1.0, 0, "a", "ok"),
                                            rec(2.0, 1, "b", "not-fresh")};
  write_jsonl(out, records);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"device_id\":1"), std::string::npos);
  EXPECT_NE(text.find("\"outcome\":\"not-fresh\""), std::string::npos);
}

// write_jsonl formats blocks on the pool and, within a block, reuses each
// double field's last text; whatever it streams must equal the
// line-at-a-time reference.
std::string jsonl_reference(const std::vector<TraceRecord>& records) {
  std::string out;
  for (const auto& r : records) out += to_jsonl(r) + "\n";
  return out;
}

std::string write_jsonl_text(const std::vector<TraceRecord>& records) {
  std::ostringstream out;
  write_jsonl(out, records);
  return out.str();
}

TEST(JsonlWriter, CrossesFlushBoundary) {
  std::vector<TraceRecord> records;
  for (int i = 0; i < 3000; ++i) {
    TraceRecord r = rec(0.25 * (i / 7), i % 13, "prover.handle",
                        i % 5 == 0 ? "not-fresh" : "ok");
    r.bytes = static_cast<std::uint64_t>(i);
    r.round_id = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i);
    records.push_back(r);
  }
  const std::string text = write_jsonl_text(records);
  EXPECT_GT(text.size(), 3u * 64u * 1024u);
  EXPECT_EQ(text, jsonl_reference(records));
}

TEST(JsonlWriter, MemoisedDoublesStayExact) {
  const double values[] = {
      1.5,  1.5,   1.5,  // repeats
      2.25, 0.1,   2.25, 0.1,  // alternation
      0.0,  -0.0,  0.0,  -0.0,  // equal as doubles, different text
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity(),
      0.0};
  std::vector<TraceRecord> records;
  for (const double v : values) {
    TraceRecord r = rec(v, 1, "k", "ok");
    r.prover_ms = v;
    r.verifier_ms = -v;
    r.energy_mj = v * 2.0;
    r.power_mw = v;
    records.push_back(r);
  }
  const std::string text = write_jsonl_text(records);
  EXPECT_EQ(text, jsonl_reference(records));
  EXPECT_NE(text.find("\"sim_time_ms\":-0,"), std::string::npos);
  EXPECT_NE(text.find("\"sim_time_ms\":0,"), std::string::npos);
  EXPECT_NE(text.find("\"sim_time_ms\":5e-324,"), std::string::npos);
}

TEST(JsonlWriter, HostileLabelsEscapedInStream) {
  std::vector<TraceRecord> records = {
      rec(1.0, 0, "plain", "ok"),
      rec(1.0, 0, "q\"uote", "back\\slash"),
      rec(2.0, 1, std::string("ctl") + '\x01' + "\n\t", "ok"),
      rec(2.0, 1, "plain", std::string(1, '\x1f')),
      rec(3.0, 2, "", "ok")};
  const std::string text = write_jsonl_text(records);
  EXPECT_EQ(text, jsonl_reference(records));
  EXPECT_NE(text.find("\"q\\\"uote\""), std::string::npos);
  EXPECT_NE(text.find("\"back\\\\slash\""), std::string::npos);
  EXPECT_NE(text.find("\"ctl\\u0001\\n\\t\""), std::string::npos);
  EXPECT_NE(text.find("\"\\u001f\""), std::string::npos);
  // Newline terminators are the only raw control bytes left.
  for (const char c : text) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
  }
}

constexpr char kCsvHeader[] =
    "sim_time_ms,device_id,kind,outcome,prover_ms,verifier_ms,bytes,"
    "energy_mj,power_mw,round_id,attempt\n";

// `n` records whose doubles repeat across block boundaries and change
// right after them (and at them), with labels that need JSON escaping
// and CSV quoting.
std::vector<TraceRecord> block_edge_records(std::size_t n) {
  const double times[] = {-0.0, 0.0, 0.1, 1e9,
                          std::numeric_limits<double>::denorm_min(), 2.25};
  const char* kinds[] = {"prover.handle", "q\"uote", "ctl\x01\n", "k,ind"};
  std::vector<TraceRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Runs of five: the run holding record 4095 also holds 4096..4099.
    TraceRecord r = rec(times[(i / 5) % std::size(times)], i % 13,
                        kinds[i % std::size(kinds)],
                        i % 3 == 0 ? "back\\slash" : "ok");
    // Constant within a block, new at each block's first record.
    r.prover_ms = 0.5 * static_cast<double>(i / kExportBlockRecords);
    r.verifier_ms = i % kExportBlockRecords < 2 ? 7.0 : 0.125;
    r.energy_mj = static_cast<double>(i % 3);
    r.bytes = i;
    r.round_id = 0x9e3779b97f4a7c15ULL * i;
    records.push_back(r);
  }
  return records;
}

const std::size_t kBlockEdgeSizes[] = {0,
                                       1,
                                       kExportBlockRecords - 1,
                                       kExportBlockRecords,
                                       kExportBlockRecords + 1,
                                       3 * kExportBlockRecords + 17};

TEST(JsonlWriter, PooledBlocksMatchLineOracle) {
  for (const std::size_t n : kBlockEdgeSizes) {
    const std::vector<TraceRecord> records = block_edge_records(n);
    EXPECT_EQ(write_jsonl_text(records), jsonl_reference(records))
        << "n=" << n;
  }
}

// The CSV oracle: the header, then every record exported on its own.
TEST(CsvWriter, PooledBlocksMatchRowOracle) {
  for (const std::size_t n : kBlockEdgeSizes) {
    const std::vector<TraceRecord> records = block_edge_records(n);
    std::string expected = kCsvHeader;
    std::ostringstream one;
    for (const TraceRecord& r : records) {
      one.str({});
      write_csv(one, std::vector<TraceRecord>{r});
      expected += one.str().substr(sizeof(kCsvHeader) - 1);
    }
    std::ostringstream out;
    write_csv(out, records);
    EXPECT_EQ(out.str(), expected) << "n=" << n;
  }
}

// Accepts `limit` bytes, then refuses every write.
class FailingBuf : public std::streambuf {
 public:
  explicit FailingBuf(std::size_t limit) : limit_(limit) {}
  std::size_t accepted() const { return accepted_; }

 protected:
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    const std::size_t take =
        std::min(static_cast<std::size_t>(n), limit_ - accepted_);
    accepted_ += take;
    return static_cast<std::streamsize>(take);
  }
  int_type overflow(int_type c) override {
    if (accepted_ == limit_) return traits_type::eof();
    ++accepted_;
    return c;
  }

 private:
  std::size_t limit_;
  std::size_t accepted_ = 0;
};

// A stream that throws mid-export: the writer must release the workers
// (some of them blocked on its window), join them and rethrow — no hang,
// no std::terminate.
TEST(JsonlWriter, StreamFailureThrowsAfterJoiningWorkers) {
  // More blocks than the window holds on up to 16 hardware threads.
  const std::size_t hw = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 16);
  const std::vector<TraceRecord> records(
      (2 * hw + 3) * kExportBlockRecords, rec(1.0, 2, "prover.handle", "ok"));
  const std::size_t block_bytes =
      (to_jsonl(records[0]).size() + 1) * kExportBlockRecords;
  for (const std::size_t limit :
       {std::size_t{0}, std::size_t{1000}, 2 * block_bytes + block_bytes / 2,
        (2 * hw + 2) * block_bytes}) {
    FailingBuf buf(limit);
    std::ostream out(&buf);
    out.exceptions(std::ios::badbit);
    EXPECT_THROW(write_jsonl(out, records), std::ios_base::failure)
        << "limit=" << limit;
    EXPECT_EQ(buf.accepted(), limit);
  }
  // The same failure on the CSV writer, which shares the block writer:
  // its rows are over 30 bytes, so this fails inside the second block.
  FailingBuf buf(40 * kExportBlockRecords);
  std::ostream out(&buf);
  out.exceptions(std::ios::badbit);
  EXPECT_THROW(write_csv(out, records), std::ios_base::failure);
}

TEST(CsvExport, HeaderPlusRows) {
  std::ostringstream out;
  const std::vector<TraceRecord> records = {rec(1.5, 2, "k", "ok")};
  write_csv(out, records);
  EXPECT_EQ(out.str(),
            "sim_time_ms,device_id,kind,outcome,prover_ms,verifier_ms,"
            "bytes,energy_mj,power_mw,round_id,attempt\n"
            "1.5,2,k,ok,0,0,0,0,0,0,0\n");
}

// --- Hostile-label escaping (exporter audit): commas, quotes,
// backslashes, newlines and raw control bytes must never break the JSON
// or CSV framing. ---

TEST(JsonlExport, EscapesControlCharacters) {
  TraceRecord r;
  r.kind = "a\nb\rc\td";
  // Built char-by-char: in a literal, "\x01f" would swallow the 'f' as a
  // third hex digit.
  r.outcome = std::string("e") + '\x01' + "f" + '\x1f' + "\b\f";
  const std::string line = to_jsonl(r);
  EXPECT_NE(line.find("\"a\\nb\\rc\\td\""), std::string::npos);
  EXPECT_NE(line.find("\"e\\u0001f\\u001f\\b\\f\""), std::string::npos);
  // No raw control byte survives into the line.
  for (const char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(CsvExport, QuotesHostileLabels) {
  std::ostringstream out;
  std::vector<TraceRecord> records = {rec(1.0, 0, "k,ind", "out\"come")};
  records.push_back(rec(2.0, 1, "multi\nline", "plain"));
  write_csv(out, records);
  const std::string text = out.str();
  // RFC 4180: comma-bearing field quoted; embedded quote doubled;
  // newline-bearing field quoted (the record then spans two text lines).
  EXPECT_NE(text.find("\"k,ind\""), std::string::npos);
  EXPECT_NE(text.find("\"out\"\"come\""), std::string::npos);
  EXPECT_NE(text.find("\"multi\nline\""), std::string::npos);
  // The hostile row still has exactly 10 unquoted commas (11 columns).
  const std::string row = text.substr(text.find('\n') + 1);
  const std::string first_row = row.substr(0, row.find('\n'));
  int commas = 0;
  bool quoted = false;
  for (const char c : first_row) {
    if (c == '"') quoted = !quoted;
    if (c == ',' && !quoted) ++commas;
  }
  EXPECT_EQ(commas, 10);
  EXPECT_NE(text.find("plain"), std::string::npos);
}

// Round-trip: parse the CSV back (RFC-4180 rules) and recover the exact
// hostile labels.
TEST(CsvExport, HostileLabelRoundTrip) {
  std::ostringstream out;
  const char* kind = "k,\"i\nnd\\";
  const char* outcome = "o\rut,\"come";
  write_csv(out, std::vector<TraceRecord>{rec(1.0, 7, kind, outcome)});
  const std::string text = out.str();
  const std::string body = text.substr(text.find('\n') + 1);
  // Minimal RFC-4180 field scanner.
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < body.size() && body[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      break;
    } else {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  ASSERT_EQ(fields.size(), 11u);
  EXPECT_EQ(fields[2], kind);
  EXPECT_EQ(fields[3], outcome);
}

TEST(RingRecorder, ReportsDropsThroughSinkInterface) {
  RingRecorder ring(2);
  const TraceSink& sink = ring;
  for (int i = 0; i < 5; ++i) ring.record(rec(i, 0, "e", "ok"));
  EXPECT_EQ(sink.dropped_total(), 3u);
}

TEST(TeeSink, SumsBranchDrops) {
  RingRecorder a(2);
  RingRecorder b(8);
  TeeSink tee(a, b);
  for (int i = 0; i < 5; ++i) tee.record(rec(i, 0, "e", "ok"));
  EXPECT_EQ(a.dropped_total(), 3u);
  EXPECT_EQ(b.dropped_total(), 0u);
  EXPECT_EQ(tee.dropped_total(), 3u);
}

}  // namespace
}  // namespace ratt::obs
