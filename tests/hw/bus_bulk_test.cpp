// Differential suite for the window-coalesced bulk bus path: every
// transfer must be byte-for-byte equivalent to the per-byte reference
// path — same statuses, same storage mutations, same fault log entries
// (address, PC, type, status), same fault counters. Directed cases pin
// the tricky edges (fault mid-block, EA-MPU windows, MMIO, NOR
// semantics, zero length, cross-region spans); a seeded fuzz sweep
// hammers random layouts, rules and operations. Also covers the bounded
// fault ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ratt/crypto/drbg.hpp"
#include "ratt/hw/bus.hpp"
#include "ratt/hw/eampu.hpp"

namespace ratt::hw {
namespace {

using crypto::Bytes;

// Storage-backed MMIO device: reads return the backing byte, writes land
// in the backing array unless the offset is marked read-only. Reads have
// no side effects, so post-run dumps through the bus are comparisons,
// not mutations.
class BackedDevice final : public MmioDevice {
 public:
  explicit BackedDevice(std::size_t size) : store_(size, 0) {}

  std::string name() const override { return "backed"; }
  std::uint8_t read(Addr offset) override { return store_.at(offset); }
  bool write(Addr offset, std::uint8_t value) override {
    if (std::find(read_only_.begin(), read_only_.end(), offset) !=
        read_only_.end()) {
      return false;
    }
    store_.at(offset) = value;
    return true;
  }

  void mark_read_only(Addr offset) { read_only_.push_back(offset); }
  const Bytes& store() const { return store_; }

 private:
  Bytes store_;
  std::vector<Addr> read_only_;
};

bool same_fault(const BusFault& a, const BusFault& b) {
  return a.pc == b.pc && a.addr == b.addr && a.type == b.type &&
         a.status == b.status;
}

// A pair of identically configured buses — one bulk, one per-byte —
// driven in lockstep and compared after every operation.
class BusPair {
 public:
  BusPair() {
    fast_.set_bulk_enabled(true);
    slow_.set_bulk_enabled(false);
  }

  void map_storage(const std::string& name, MemoryKind kind,
                   AddrRange range) {
    fast_.map_storage(name, kind, range);
    slow_.map_storage(name, kind, range);
  }

  void map_device(const std::string& name, AddrRange range) {
    fast_dev_.emplace_back(new BackedDevice(range.size()));
    slow_dev_.emplace_back(new BackedDevice(range.size()));
    fast_.map_device(name, range, *fast_dev_.back());
    slow_.map_device(name, range, *slow_dev_.back());
  }

  void mark_device_read_only(std::size_t device, Addr offset) {
    fast_dev_.at(device)->mark_read_only(offset);
    slow_dev_.at(device)->mark_read_only(offset);
  }

  void set_controller(const AccessController* c) {
    fast_.set_access_controller(c);
    slow_.set_access_controller(c);
  }

  void load_initial(Addr addr, ByteView data) {
    fast_.load_initial(addr, data);
    slow_.load_initial(addr, data);
  }

  BusStatus read(const AccessContext& ctx, Addr addr, std::size_t len) {
    Bytes fast_out(len, 0xcd), slow_out(len, 0xcd);
    const BusStatus fs = fast_.read_block(ctx, addr, fast_out);
    const BusStatus ss = slow_.read_block(ctx, addr, slow_out);
    EXPECT_EQ(fs, ss) << "read status @" << std::hex << addr;
    // Compare even on faults: the partial fill up to the failing byte is
    // part of the contract.
    EXPECT_EQ(fast_out, slow_out) << "read data @" << std::hex << addr;
    return check(fs, ss);
  }

  BusStatus write(const AccessContext& ctx, Addr addr, ByteView data) {
    const BusStatus fs = fast_.write_block(ctx, addr, data);
    const BusStatus ss = slow_.write_block(ctx, addr, data);
    EXPECT_EQ(fs, ss) << "write status @" << std::hex << addr;
    return check(fs, ss);
  }

  BusStatus erase(const AccessContext& ctx, Addr addr) {
    const BusStatus fs = fast_.erase_flash_block(ctx, addr);
    const BusStatus ss = slow_.erase_flash_block(ctx, addr);
    EXPECT_EQ(fs, ss) << "erase status @" << std::hex << addr;
    return check(fs, ss);
  }

  // Full-state comparison: every mapped byte (hardware context bypasses
  // the controller; BackedDevice reads are side-effect-free) plus the
  // complete fault logs and counters.
  void expect_identical_state() {
    for (const auto& info : fast_.regions()) {
      Bytes fast_mem(info.range.size()), slow_mem(info.range.size());
      ASSERT_EQ(fast_.read_block(AccessContext{kHardwarePc},
                                 info.range.begin, fast_mem),
                BusStatus::kOk);
      ASSERT_EQ(slow_.read_block(AccessContext{kHardwarePc},
                                 info.range.begin, slow_mem),
                BusStatus::kOk);
      EXPECT_EQ(fast_mem, slow_mem) << "region " << info.name;
    }
    const auto fast_faults = fast_.faults();
    const auto slow_faults = slow_.faults();
    ASSERT_EQ(fast_faults.size(), slow_faults.size());
    for (std::size_t i = 0; i < fast_faults.size(); ++i) {
      EXPECT_TRUE(same_fault(fast_faults[i], slow_faults[i]))
          << "fault " << i << ": fast {pc=" << std::hex << fast_faults[i].pc
          << " addr=" << fast_faults[i].addr << "} slow {pc="
          << slow_faults[i].pc << " addr=" << slow_faults[i].addr << "}";
    }
    EXPECT_EQ(fast_.faults_total(), slow_.faults_total());
    EXPECT_EQ(fast_.faults_dropped(), slow_.faults_dropped());
  }

  MemoryBus& fast() { return fast_; }
  MemoryBus& slow() { return slow_; }

 private:
  BusStatus check(BusStatus fs, BusStatus ss) {
    EXPECT_EQ(fs, ss);
    return fs;
  }

  MemoryBus fast_;
  MemoryBus slow_;
  std::vector<std::unique_ptr<BackedDevice>> fast_dev_;
  std::vector<std::unique_ptr<BackedDevice>> slow_dev_;
};

constexpr AccessContext kAnchorPc{0x0010};  // inside [0x0000, 0x0100)
constexpr AccessContext kAppPc{0x0200};     // outside every rule's code
constexpr AccessContext kHwCtx{kHardwarePc};

// Standard layout: rom | ram | gap | flash (two erase blocks) | mmio.
class BulkDifferentialTest : public ::testing::Test {
 protected:
  BulkDifferentialTest() {
    pair_.map_storage("rom", MemoryKind::kRom, AddrRange{0x0000, 0x1000});
    pair_.map_storage("ram", MemoryKind::kRam, AddrRange{0x1000, 0x3000});
    pair_.map_storage("flash", MemoryKind::kFlash,
                      AddrRange{0x4000, 0x6000});
    pair_.map_device("mmio", AddrRange{0x8000, 0x8020});
    pair_.mark_device_read_only(0, 0x7);

    // Rules: the anchor owns [0x1100,0x1200); a second rule makes
    // [0x1180,0x1300) anchor-read-only (overlap creates interior window
    // boundaries); everyone is denied [0x2000,0x2100).
    EampuRule r0;
    r0.code = AddrRange{0x0000, 0x0100};
    r0.data = AddrRange{0x1100, 0x1200};
    r0.allow_read = r0.allow_write = true;
    r0.active = true;
    r0.label = "anchor-rw";
    mpu_.set_rule(0, r0);

    EampuRule r1;
    r1.code = AddrRange{0x0000, 0x0100};
    r1.data = AddrRange{0x1180, 0x1300};
    r1.allow_read = true;
    r1.allow_write = false;
    r1.active = true;
    r1.label = "anchor-ro";
    mpu_.set_rule(1, r1);

    EampuRule r2;
    r2.code = AddrRange{};
    r2.data = AddrRange{0x2000, 0x2100};
    r2.allow_read = r2.allow_write = false;
    r2.active = true;
    r2.label = "lockdown";
    mpu_.set_rule(2, r2);

    pair_.set_controller(&mpu_);
  }

  Bytes pattern(std::size_t n, std::uint8_t seed = 0x11) {
    Bytes out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(seed + i * 7);
    }
    return out;
  }

  BusPair pair_;
  EaMpu mpu_{8};
};

TEST_F(BulkDifferentialTest, FaultMidBlockStopsAtSameByte) {
  // Write runs into the everyone-denied range at 0x2000: earlier bytes
  // must stay written on both buses, with one fault at exactly 0x2000.
  EXPECT_EQ(pair_.write(kAppPc, 0x1f80, pattern(0x100)),
            BusStatus::kDenied);
  pair_.expect_identical_state();
  const auto faults = pair_.fast().faults();
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].addr, 0x2000u);
  EXPECT_EQ(faults[0].status, BusStatus::kDenied);

  // Reads fault mid-block the same way.
  EXPECT_EQ(pair_.read(kAppPc, 0x1ff0, 0x40), BusStatus::kDenied);
  pair_.expect_identical_state();
}

TEST_F(BulkDifferentialTest, DenyAtWindowEdges) {
  // Ending exactly at the denied range: no fault.
  EXPECT_EQ(pair_.read(kAppPc, 0x1f00, 0x100), BusStatus::kOk);
  // Starting exactly at the denied range: immediate fault, zero bytes.
  EXPECT_EQ(pair_.read(kAppPc, 0x2000, 0x10), BusStatus::kDenied);
  // Starting at the last denied byte, running past it.
  EXPECT_EQ(pair_.read(kAppPc, 0x20ff, 0x10), BusStatus::kDenied);
  // Starting one past the denied range: clean.
  EXPECT_EQ(pair_.read(kAppPc, 0x2100, 0x10), BusStatus::kOk);
  pair_.expect_identical_state();
}

TEST_F(BulkDifferentialTest, OverlappingRuleWindows) {
  // [0x1100,0x1180) anchor-RW; [0x1180,0x1200) RW+RO rules overlap (write
  // granted by r0); [0x1200,0x1300) anchor read-only; all as one span.
  EXPECT_EQ(pair_.write(kAnchorPc, 0x1100, pattern(0x100)), BusStatus::kOk);
  EXPECT_EQ(pair_.read(kAnchorPc, 0x1100, 0x200), BusStatus::kOk);
  // A write crossing into the read-only tail faults at 0x1200 exactly.
  EXPECT_EQ(pair_.write(kAnchorPc, 0x11f0, pattern(0x20)),
            BusStatus::kDenied);
  pair_.expect_identical_state();
  EXPECT_EQ(pair_.fast().faults().back().addr, 0x1200u);
  // The app PC is denied the whole rule-covered stretch.
  EXPECT_EQ(pair_.read(kAppPc, 0x10f0, 0x20), BusStatus::kDenied);
  pair_.expect_identical_state();
}

TEST_F(BulkDifferentialTest, MmioTransfersAndReadOnlyRegister) {
  EXPECT_EQ(pair_.write(kAppPc, 0x8000, pattern(0x7)), BusStatus::kOk);
  EXPECT_EQ(pair_.read(kAppPc, 0x8000, 0x20), BusStatus::kOk);
  // Write sweeping across the read-only register at offset 0x7 stops
  // there with kReadOnly; earlier registers keep the new values.
  EXPECT_EQ(pair_.write(kAppPc, 0x8004, pattern(0x10, 0x40)),
            BusStatus::kReadOnly);
  pair_.expect_identical_state();
  EXPECT_EQ(pair_.fast().faults().back().addr, 0x8007u);
}

TEST_F(BulkDifferentialTest, NorFlashProgramAndErase) {
  // Flash powers up erased (0xff); programming ANDs bits away, erase
  // restores a whole 4 KB block to 0xff.
  EXPECT_EQ(pair_.write(kAppPc, 0x4100, pattern(0x80, 0xf0)),
            BusStatus::kOk);
  // Re-programming can only clear bits: 0x0f-seeded over 0xf0 pattern.
  EXPECT_EQ(pair_.write(kAppPc, 0x4100, pattern(0x80, 0x0f)),
            BusStatus::kOk);
  pair_.expect_identical_state();
  // Erase brings the block back to 0xff on both buses.
  EXPECT_EQ(pair_.erase(kAppPc, 0x4000), BusStatus::kOk);
  // Second block untouched by the first block's erase.
  EXPECT_EQ(pair_.erase(kAppPc, 0x5fff), BusStatus::kOk);
  // Erase on non-flash fails identically.
  EXPECT_EQ(pair_.erase(kAppPc, 0x1000), BusStatus::kReadOnly);
  pair_.expect_identical_state();
}

TEST_F(BulkDifferentialTest, RomWritesAndHardwareContext) {
  // ROM write: kReadOnly before the controller is consulted, fault at
  // the first ROM byte of the span.
  EXPECT_EQ(pair_.write(kAppPc, 0x0ff0, pattern(0x20)),
            BusStatus::kReadOnly);
  pair_.expect_identical_state();
  EXPECT_EQ(pair_.fast().faults().back().addr, 0x0ff0u);
  // Hardware context sails through EA-MPU-denied territory.
  EXPECT_EQ(pair_.read(AccessContext{kHardwarePc}, 0x1f80, 0x100),
            BusStatus::kOk);
  EXPECT_EQ(pair_.write(AccessContext{kHardwarePc}, 0x2000, pattern(0x10)),
            BusStatus::kOk);
  pair_.expect_identical_state();
}

TEST_F(BulkDifferentialTest, ZeroLengthTransfers) {
  EXPECT_EQ(pair_.read(kAppPc, 0x1000, 0), BusStatus::kOk);
  EXPECT_EQ(pair_.write(kAppPc, 0x1000, ByteView{}), BusStatus::kOk);
  // Zero-length at an unmapped / denied address is still a no-op.
  EXPECT_EQ(pair_.read(kAppPc, 0x7777, 0), BusStatus::kOk);
  EXPECT_EQ(pair_.write(kAppPc, 0x2000, ByteView{}), BusStatus::kOk);
  pair_.expect_identical_state();
  EXPECT_TRUE(pair_.fast().faults().empty());
}

TEST_F(BulkDifferentialTest, CrossRegionSpans) {
  // rom and ram are contiguous: one read crosses the boundary cleanly.
  EXPECT_EQ(pair_.read(kAppPc, 0x0f80, 0x100), BusStatus::kOk);
  // A write running off the end of ram into the unmapped gap faults at
  // the first unmapped byte, with the in-ram prefix committed.
  EXPECT_EQ(pair_.write(kAppPc, 0x2f80, pattern(0x100)),
            BusStatus::kUnmapped);
  pair_.expect_identical_state();
  EXPECT_EQ(pair_.fast().faults().back().addr, 0x3000u);
  // Read spanning ram -> gap likewise.
  EXPECT_EQ(pair_.read(kAppPc, 0x2fff, 0x10), BusStatus::kUnmapped);
  // Span fully inside the gap faults at its first byte.
  EXPECT_EQ(pair_.read(kAppPc, 0x3800, 0x10), BusStatus::kUnmapped);
  pair_.expect_identical_state();
}

TEST(BulkFaultRingTest, RingBoundsAndDropCounter) {
  MemoryBus bus;
  bus.map_storage("ram", MemoryKind::kRam, AddrRange{0x0000, 0x1000});
  bus.set_fault_capacity(4);
  std::uint8_t v = 0;
  for (int i = 0; i < 10; ++i) {
    (void)bus.read8(AccessContext{0x100}, 0x2000 + i, v);  // unmapped
  }
  EXPECT_EQ(bus.fault_capacity(), 4u);
  EXPECT_EQ(bus.faults_total(), 10u);
  EXPECT_EQ(bus.faults_dropped(), 6u);
  const auto faults = bus.faults();
  ASSERT_EQ(faults.size(), 4u);
  // Oldest-first: the survivors are faults 6..9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(faults[i].addr, 0x2006u + i);
  }
  bus.clear_faults();
  EXPECT_TRUE(bus.faults().empty());
  EXPECT_EQ(bus.faults_total(), 0u);
  EXPECT_EQ(bus.faults_dropped(), 0u);
}

// --- Seeded randomized layout/rule/operation fuzz. ---

class FuzzRand {
 public:
  explicit FuzzRand(std::uint32_t seed)
      : drbg_(crypto::from_string("bus-bulk-fuzz-" + std::to_string(seed))) {}

  std::uint32_t next(std::uint32_t bound) {
    const Bytes raw = drbg_.generate(4);
    return crypto::load_le32(raw.data()) % bound;
  }
  Bytes bytes(std::size_t n) { return drbg_.generate(n); }

 private:
  crypto::HmacDrbg drbg_;
};

TEST(BulkDifferentialFuzz, RandomLayoutsRulesAndOps) {
  constexpr MemoryKind kKinds[] = {MemoryKind::kRom, MemoryKind::kRam,
                                   MemoryKind::kFlash};
  for (std::uint32_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FuzzRand rng(seed);
    BusPair pair;
    EaMpu mpu(8);

    // Random layout: 3-6 regions with random sizes and gaps, plus one
    // MMIO window with a couple of read-only registers.
    std::vector<AddrRange> ranges;
    Addr cursor = 0;
    const std::size_t region_count = 3 + rng.next(4);
    for (std::size_t i = 0; i < region_count; ++i) {
      cursor += rng.next(3) * 0x800;  // gap: 0, 2 KB or 4 KB
      const Addr size = 0x800 + rng.next(4) * 0x800;
      const AddrRange range{cursor, cursor + size};
      const MemoryKind kind = kKinds[rng.next(3)];
      pair.map_storage("r" + std::to_string(i), kind, range);
      // Random initial contents (load_initial bypasses ROM protection).
      pair.load_initial(range.begin, rng.bytes(range.size()));
      ranges.push_back(range);
      cursor = range.end;
    }
    const AddrRange mmio_range{cursor + 0x1000, cursor + 0x1040};
    pair.map_device("mmio", mmio_range);
    pair.mark_device_read_only(0, rng.next(0x40));
    pair.mark_device_read_only(0, rng.next(0x40));
    ranges.push_back(mmio_range);

    // Random rules over random sub-spans of the mapped regions.
    const std::size_t rule_count = 1 + rng.next(6);
    for (std::size_t i = 0; i < rule_count; ++i) {
      const AddrRange& base = ranges[rng.next(ranges.size())];
      const Addr begin = base.begin + rng.next(base.size());
      const Addr len = 1 + rng.next(base.size());
      EampuRule rule;
      rule.code = rng.next(2) == 0 ? AddrRange{0x0000, 0x0100}
                                   : AddrRange{};
      rule.data = AddrRange{begin, std::min<Addr>(begin + len, base.end)};
      rule.allow_read = rng.next(2) == 0;
      rule.allow_write = rng.next(2) == 0;
      rule.active = true;
      rule.label = "fuzz-" + std::to_string(i);
      mpu.set_rule(i, rule);
    }
    pair.set_controller(&mpu);

    // Random operations: interesting base addresses are region edges and
    // rule boundaries, jittered.
    std::vector<Addr> anchors;
    for (const auto& r : ranges) {
      anchors.push_back(r.begin);
      anchors.push_back(r.end);
    }
    const AccessContext contexts[] = {kAnchorPc, kAppPc,
                                      AccessContext{kHardwarePc}};
    for (int op = 0; op < 300; ++op) {
      const Addr base = anchors[rng.next(anchors.size())];
      const Addr jitter = rng.next(0x120);
      const Addr addr = base >= jitter ? base - jitter + rng.next(0x240)
                                       : rng.next(0x240);
      const AccessContext ctx = contexts[rng.next(3)];
      switch (rng.next(3)) {
        case 0:
          pair.read(ctx, addr, rng.next(0x300));
          break;
        case 1:
          pair.write(ctx, addr, rng.bytes(rng.next(0x300)));
          break;
        case 2:
          pair.erase(ctx, addr);
          break;
      }
      if (::testing::Test::HasFailure()) break;  // don't spam
    }
    pair.expect_identical_state();
    if (::testing::Test::HasFailure()) break;

    // High-water phase: fresh regions without a full initial image, so
    // pages hold short prefixes. Writes land at random high offsets of
    // pages that already hold a prefix, and reads run from low in a
    // page across the rest of it, straddling wherever the prefix ends.
    BusPair sparse;
    std::vector<AddrRange> sparse_ranges;
    cursor = 0;
    for (std::size_t i = 0; i < 3; ++i) {
      cursor += rng.next(2) * 0x1000;
      // Odd sizes leave a partial last page for the prefix to clamp to.
      const Addr size = 0x1000 + rng.next(3) * 0x1000 + rng.next(0x180);
      const AddrRange range{cursor, cursor + size};
      const MemoryKind kind = kKinds[rng.next(3)];
      sparse.map_storage("s" + std::to_string(i), kind, range);
      // A short provisioned prefix (ROM's only content).
      sparse.load_initial(range.begin + rng.next(0x100),
                          rng.bytes(1 + rng.next(0x40)));
      sparse_ranges.push_back(range);
      cursor = range.end;
    }
    for (int op = 0; op < 200; ++op) {
      const AddrRange& range = sparse_ranges[rng.next(3)];
      const Addr page =
          range.begin + rng.next((range.size() + 0xfff) / 0x1000) * 0x1000;
      switch (rng.next(4)) {
        case 0:  // low write: start (or extend) a prefix
          sparse.write(kHwCtx, page + rng.next(0x80),
                       rng.bytes(1 + rng.next(0x40)));
          break;
        case 1:  // high write past the current prefix, maybe off the page
          sparse.write(kHwCtx, page + 0x80 + rng.next(0xfc0),
                       rng.bytes(1 + rng.next(0x180)));
          break;
        case 2:  // read across the high-water mark
          sparse.read(kHwCtx, page + rng.next(0x400),
                      0x800 + rng.next(0x1000));
          break;
        case 3:
          sparse.erase(kHwCtx, page + rng.next(0x1000));
          break;
      }
      if (::testing::Test::HasFailure()) break;
    }
    sparse.expect_identical_state();
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace ratt::hw
