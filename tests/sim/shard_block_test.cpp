// Structure-of-arrays shard blocks: the ComponentSlab/DeviceArena
// storage plan behind SwarmConfig::soa_blocks. The slab must keep
// constructed elements at stable addresses while growing, destroy them
// in reverse order, and report its chunk bytes; at the swarm level the
// SoA toggle must be invisible in reports and merged traces while the
// resident report stays an honest audit of lazy materialization.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "ratt/sim/shard_block.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::sim {
namespace {

using attest::FreshnessScheme;

struct Probe {
  static std::vector<int>* destroyed;
  int id;
  explicit Probe(int id_in) : id(id_in) {}
  ~Probe() {
    if (destroyed != nullptr) destroyed->push_back(id);
  }
};
std::vector<int>* Probe::destroyed = nullptr;

TEST(ComponentSlab, PointersStableAcrossChunkGrowth) {
  ComponentSlab<Probe> slab;
  std::vector<Probe*> ptrs;
  const int n = static_cast<int>(ComponentSlab<Probe>::kChunk * 3 + 5);
  for (int i = 0; i < n; ++i) {
    ptrs.push_back(slab.emplace(i));
  }
  EXPECT_EQ(slab.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(ptrs[i]->id, i) << "element moved or corrupted at " << i;
  }
  // Four chunks were needed for 3*kChunk+5 elements.
  EXPECT_EQ(slab.slab_bytes(),
            4 * sizeof(Probe) * ComponentSlab<Probe>::kChunk);
}

TEST(ComponentSlab, DestroysInReverseConstructionOrder) {
  std::vector<int> order;
  Probe::destroyed = &order;
  {
    ComponentSlab<Probe> slab;
    for (int i = 0; i < 10; ++i) slab.emplace(i);
  }
  Probe::destroyed = nullptr;
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], 9 - i);
  }
}

SwarmConfig fleet(std::size_t devices) {
  SwarmConfig config;
  config.device_count = devices;
  config.shard_count = 4;
  config.prover.scheme = FreshnessScheme::kCounter;
  config.prover.authenticate_requests = true;
  config.prover.measured_bytes = 256;
  config.attest_period_ms = 100.0;
  config.stagger_ms = 7.0;
  return config;
}

SwarmReport run_fleet(const SwarmConfig& config, std::string* jsonl) {
  Swarm swarm(config, crypto::from_string("soa-seed"));
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  const SwarmReport report = swarm.run_parallel(400.0, 2);
  if (jsonl != nullptr) {
    std::ostringstream out;
    obs::write_jsonl(out, swarm.merged_trace());
    *jsonl = out.str();
  }
  return report;
}

TEST(ShardBlock, SoaToggleInvisibleInReportsAndTraces) {
  SwarmConfig soa = fleet(8);
  soa.soa_blocks = true;
  SwarmConfig heap = fleet(8);
  heap.soa_blocks = false;
  std::string soa_jsonl;
  std::string heap_jsonl;
  const SwarmReport soa_report = run_fleet(soa, &soa_jsonl);
  const SwarmReport heap_report = run_fleet(heap, &heap_jsonl);
  EXPECT_EQ(soa_report, heap_report);
  EXPECT_FALSE(soa_jsonl.empty());
  EXPECT_EQ(soa_jsonl, heap_jsonl);
}

TEST(ShardBlock, MacBatchToggleInvisibleInReportsAndTraces) {
  SwarmConfig batched = fleet(8);
  batched.mac_batch = true;
  SwarmConfig scalar = fleet(8);
  scalar.mac_batch = false;
  std::string batched_jsonl;
  std::string scalar_jsonl;
  const SwarmReport batched_report = run_fleet(batched, &batched_jsonl);
  const SwarmReport scalar_report = run_fleet(scalar, &scalar_jsonl);
  EXPECT_EQ(batched_report, scalar_report);
  EXPECT_FALSE(batched_jsonl.empty());
  EXPECT_EQ(batched_jsonl, scalar_jsonl);
}

TEST(ShardBlock, ResidentReportAuditsLazyMaterialization) {
  for (const bool soa : {true, false}) {
    SwarmConfig config = fleet(16);
    config.soa_blocks = soa;
    Swarm swarm(config, crypto::from_string("soa-seed"));
    // Nothing materialized: the fleet costs nothing yet.
    Swarm::ResidentReport empty = swarm.resident();
    EXPECT_EQ(empty.devices, 0u) << "soa=" << soa;
    EXPECT_EQ(empty.total_bytes(), 0u) << "soa=" << soa;
    // Touch three devices; only they may appear in the report.
    swarm.prover(0);
    swarm.prover(5);
    swarm.prover(11);
    Swarm::ResidentReport three = swarm.resident();
    EXPECT_EQ(three.devices, 3u) << "soa=" << soa;
    EXPECT_GT(three.arena_bytes, 0u) << "soa=" << soa;
    EXPECT_GT(three.bus_bytes, 0u) << "soa=" << soa;
    EXPECT_GT(three.table_bytes, 0u) << "soa=" << soa;
    // Re-touching a materialized device is free.
    swarm.prover(5);
    Swarm::ResidentReport retouch = swarm.resident();
    EXPECT_EQ(retouch.devices, 3u) << "soa=" << soa;
    EXPECT_EQ(retouch.total_bytes(), three.total_bytes()) << "soa=" << soa;
    // Materializing the rest grows the report device by device.
    for (std::size_t i = 0; i < swarm.size(); ++i) swarm.prover(i);
    Swarm::ResidentReport full = swarm.resident();
    EXPECT_EQ(full.devices, 16u) << "soa=" << soa;
    EXPECT_GT(full.total_bytes(), three.total_bytes()) << "soa=" << soa;
    EXPECT_GT(full.per_device_bytes(), 0.0) << "soa=" << soa;
  }
}

TEST(ShardBlock, SharedImageFleetStaysUnderFootprintBudget) {
  // The footprint gate, scaled down: a shared-image fleet (the bench
  // configuration) must materialize at <= 6 KB per device, with the
  // template's boot pages counted once in shared_bytes rather than once
  // per device. 64 devices per shard fills the component chunks exactly,
  // so the slab granularity doesn't distort the per-device figure.
  SwarmConfig config = fleet(256);
  config.share_app_image = true;
  config.prover.measured_bytes = 64;
  Swarm swarm(config, crypto::from_string("soa-seed"));
  for (std::size_t i = 0; i < swarm.size(); ++i) swarm.prover(i);
  const Swarm::ResidentReport r = swarm.resident();
  EXPECT_EQ(r.devices, 256u);
  EXPECT_GT(r.shared_bytes, 0u);
  EXPECT_LE(r.per_device_bytes(), 6.0 * 1024.0);
}

TEST(ShardBlock, ReliableAndIncrementalAreMutuallyExclusive) {
  // Satellite regression: the retransmitter owns reliable round state
  // and the incremental path owns its own — combining them silently
  // produced wire-level divergence, so the ctor now refuses, in both
  // flag orders.
  SwarmConfig config = fleet(4);
  config.reliable = true;
  config.prover.enable_incremental = true;
  EXPECT_THROW(Swarm(config, crypto::from_string("soa-seed")),
               std::invalid_argument);
  // Either flag alone is fine.
  SwarmConfig only_reliable = fleet(4);
  only_reliable.reliable = true;
  EXPECT_NO_THROW(Swarm(only_reliable, crypto::from_string("soa-seed")));
  SwarmConfig only_incremental = fleet(4);
  only_incremental.prover.enable_incremental = true;
  EXPECT_NO_THROW(Swarm(only_incremental, crypto::from_string("soa-seed")));
}

}  // namespace
}  // namespace ratt::sim
