// merge_traces differential: the ring merge (per-ring key sort + k-way
// heap merge, reading the rings in place) must equal, byte for byte, the
// reference definition of the merged order — concatenate every ring's
// snapshot and stable-sort by (sim_time_ms, device_id).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ratt/obs/trace.hpp"

namespace ratt::obs {
namespace {

// The reference: concatenation in ring order, then a stable sort with the
// merge comparator (`!=` then `<` on time, so -0.0 and +0.0 tie).
std::vector<TraceRecord> oracle_merge(
    const std::vector<const RingRecorder*>& rings) {
  std::vector<TraceRecord> out;
  for (const RingRecorder* ring : rings) {
    for (TraceRecord& rec : ring->snapshot()) out.push_back(std::move(rec));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.sim_time_ms != b.sim_time_ms) {
                       return a.sim_time_ms < b.sim_time_ms;
                     }
                     return a.device_id < b.device_id;
                   });
  return out;
}

// Exported bytes, so -0.0 vs +0.0 and label order are all visible.
std::string dump(const std::vector<TraceRecord>& records) {
  std::string out;
  for (const TraceRecord& rec : records) {
    out += to_jsonl(rec);
    out += '\n';
  }
  return out;
}

// Each record is tagged with its ring and per-ring sequence number, so a
// wrong tie order shows up in the dump.
TraceRecord rec(double t, std::uint64_t dev, std::size_t ring,
                std::uint32_t seq) {
  TraceRecord r;
  r.sim_time_ms = t;
  r.device_id = dev;
  r.kind = "ring" + std::to_string(ring);
  r.outcome = "seq" + std::to_string(seq);
  r.attempt = seq;
  return r;
}

class Rings {
 public:
  Rings(std::size_t count, std::size_t capacity)
      : Rings(std::vector<std::size_t>(count, capacity)) {}
  explicit Rings(const std::vector<std::size_t>& capacities) {
    for (const std::size_t capacity : capacities) {
      owned_.push_back(std::make_unique<RingRecorder>(capacity));
      views_.push_back(owned_.back().get());
    }
  }
  void add(std::size_t ring, double t, std::uint64_t dev) {
    owned_[ring]->record(rec(t, dev, ring, seq_++));
  }
  const std::vector<const RingRecorder*>& views() const { return views_; }

 private:
  std::vector<std::unique_ptr<RingRecorder>> owned_;
  std::vector<const RingRecorder*> views_;
  std::uint32_t seq_ = 0;
};

void expect_matches_oracle(const Rings& rings) {
  const std::vector<TraceRecord> merged = merge_traces(rings.views());
  const std::vector<TraceRecord> expected = oracle_merge(rings.views());
  ASSERT_EQ(merged.size(), expected.size());
  EXPECT_EQ(dump(merged), dump(expected));
}

// Rings grow on demand, so at(i) == snapshot()[i] (oldest first) is
// checked while the ring fills, exactly at full and after several wraps.
TEST(RingRecorder, AtMatchesSnapshot) {
  for (const std::size_t capacity : {1u, 3u, 5u, 4096u}) {
    for (const std::size_t n : {std::size_t{0}, capacity - 1, capacity,
                                capacity + 2, 3 * capacity + 2}) {
      RingRecorder ring(capacity);
      for (std::size_t i = 0; i < n; ++i) {
        ring.record(rec(double(i), 0, 0, static_cast<std::uint32_t>(i)));
      }
      SCOPED_TRACE("capacity=" + std::to_string(capacity) +
                   " n=" + std::to_string(n));
      const std::size_t live = std::min(n, capacity);
      const auto snap = ring.snapshot();
      ASSERT_EQ(ring.size(), live);
      ASSERT_EQ(snap.size(), live);
      EXPECT_EQ(ring.dropped(), n - live);
      for (std::size_t i = 0; i < live; ++i) {
        ASSERT_EQ(ring.at(i), snap[i]) << "i=" << i;
        // The survivors are the last `live` records, in order.
        ASSERT_EQ(snap[i].attempt, n - live + i) << "i=" << i;
      }
    }
  }
}

// Rings are not time-ordered in practice: prover records carry the MCU
// clock, verifier records the queue clock.
TEST(MergeTraces, OutOfOrderRings) {
  Rings rings(3, 64);
  const double times[] = {9.0, 3.0, 7.5, 1.0, 3.0, 12.25, 0.5, 7.5};
  for (std::size_t i = 0; i < 8; ++i) {
    rings.add(0, times[i], i % 3);
    rings.add(1, times[7 - i], 10 + i % 2);
    rings.add(2, 20.0 - times[i], 20);
  }
  expect_matches_oracle(rings);
}

TEST(MergeTraces, EqualTimeDeviceRunsKeepRingOrder) {
  Rings rings(4, 64);
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t r = 0; r < 4; ++r) {
      rings.add(r, 2.0, 7);  // one (time, device) shared by every ring
      rings.add(r, 2.0, r);
      rings.add(r, 1.0, 7);
    }
  }
  expect_matches_oracle(rings);
}

TEST(MergeTraces, SignedZeroTimesTie) {
  Rings rings(2, 32);
  for (std::uint32_t i = 0; i < 6; ++i) {
    rings.add(i % 2, (i % 3 == 0) ? -0.0 : 0.0, i % 2);
    rings.add((i + 1) % 2, (i % 2 == 0) ? 0.0 : -0.0, 5);
  }
  const std::vector<TraceRecord> merged = merge_traces(rings.views());
  // -0.0 and +0.0 interleave by device and ring order, not by sign.
  EXPECT_NE(dump(merged).find("\"sim_time_ms\":-0,"), std::string::npos);
  expect_matches_oracle(rings);
}

TEST(MergeTraces, EmptyRings) {
  EXPECT_TRUE(merge_traces({}).empty());
  Rings none(3, 8);
  EXPECT_TRUE(merge_traces(none.views()).empty());

  Rings some(5, 8);
  some.add(1, 4.0, 1);
  some.add(1, 2.0, 1);
  some.add(3, 3.0, 3);
  expect_matches_oracle(some);
}

TEST(MergeTraces, WrappedRingsMergeSurvivorsOnly) {
  Rings rings(3, 4);
  for (std::uint32_t i = 0; i < 11; ++i) {
    rings.add(0, static_cast<double>(11 - i), 0);
    rings.add(1, static_cast<double>(i % 5), 1);
  }
  rings.add(2, 3.0, 2);  // one unwrapped ring among wrapped ones
  const std::vector<TraceRecord> merged = merge_traces(rings.views());
  EXPECT_EQ(merged.size(), 4u + 4u + 1u);
  expect_matches_oracle(rings);
}

TEST(MergeTraces, RandomizedMatchesStableSort) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t ring_count = 1 + rng() % 16;
    const std::size_t capacity = 1 + rng() % 200;
    Rings rings(ring_count, capacity);
    // Few distinct times and devices, so ties are common.
    const double times[] = {-0.0, 0.0, 0.125, 1.0, 1.5, 2.0, 1e9};
    const std::size_t records = rng() % (ring_count * 250);
    for (std::size_t i = 0; i < records; ++i) {
      const std::size_t ring = rng() % ring_count;
      rings.add(ring, times[rng() % std::size(times)], rng() % 6);
    }
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_matches_oracle(rings);
  }
  // Fleet-shaped: 16 rings of mixed capacity, the small ones wrapped,
  // whose survivors span at least three of the merge's copy blocks.
  for (std::uint32_t seed = 9; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::size_t> capacities(16);
    for (std::size_t r = 0; r < capacities.size(); ++r) {
      capacities[r] = r % 2 == 0 ? 500 + rng() % 500 : 2000 + rng() % 1000;
    }
    Rings rings(capacities);
    const double times[] = {-0.0, 0.0, 0.125, 1.0, 1.5, 2.0, 1e9};
    for (std::size_t i = 0; i < 16 * 1500; ++i) {
      rings.add(rng() % 16, times[rng() % std::size(times)], rng() % 64);
    }
    std::size_t survivors = 0;
    std::uint64_t dropped = 0;
    for (const RingRecorder* ring : rings.views()) {
      survivors += ring->size();
      dropped += ring->dropped();
    }
    ASSERT_GT(survivors, 3 * kExportBlockRecords);
    ASSERT_GT(dropped, 0u);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_matches_oracle(rings);
  }
}

}  // namespace
}  // namespace ratt::obs
