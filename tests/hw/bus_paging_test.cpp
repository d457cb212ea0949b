// Lazily-paged bus backing: mapped-but-untouched storage costs nothing,
// pages materialize on first write (filled with the region's power-up
// byte) and store only their high-water prefix, flash erase drops its
// page, and the paged fast path stays byte-identical to the per-byte
// reference path across page boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ratt/hw/bus.hpp"

namespace ratt::hw {
namespace {

constexpr AccessContext kHw{};  // hardware PC — always admitted

MemoryBus make_bus() {
  MemoryBus bus;
  bus.map_storage("rom", MemoryKind::kRom, {0x0000'0000, 0x0000'4000});
  bus.map_storage("ram", MemoryKind::kRam, {0x2000'0000, 0x2000'4000});
  bus.map_storage("flash", MemoryKind::kFlash, {0x0800'0000, 0x0810'0000});
  return bus;
}

TEST(BusPaging, UntouchedRegionsReadFillWithoutAllocating) {
  MemoryBus bus = make_bus();
  EXPECT_EQ(bus.resident_bytes(), 0u);
  std::uint8_t b = 0x55;
  ASSERT_EQ(bus.read8(kHw, 0x2000'0123, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x00);
  ASSERT_EQ(bus.read8(kHw, 0x0800'1234, b), BusStatus::kOk);
  EXPECT_EQ(b, 0xff);  // flash powers up erased
  std::vector<std::uint8_t> block(10'000);
  ASSERT_EQ(bus.read_block(kHw, 0x0800'0000, block), BusStatus::kOk);
  for (const std::uint8_t v : block) ASSERT_EQ(v, 0xff);
  // A megabyte of mapped flash read end to end — still zero resident.
  EXPECT_EQ(bus.resident_bytes(), 0u);
}

TEST(BusPaging, WritesMaterializeOnePageAtATime) {
  MemoryBus bus = make_bus();
  ASSERT_EQ(bus.write8(kHw, 0x2000'0000, 0xab), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 64u);  // one 64-byte prefix
  // Same page: its prefix grows to the page end.
  ASSERT_EQ(bus.write8(kHw, 0x2000'0fff, 0xcd), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 4096u);
  // Next page.
  ASSERT_EQ(bus.write8(kHw, 0x2000'1000, 0xef), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 4160u);
  // The fill shows through around the written bytes.
  std::uint8_t b = 0;
  ASSERT_EQ(bus.read8(kHw, 0x2000'0001, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x00);
  ASSERT_EQ(bus.read8(kHw, 0x2000'0fff, b), BusStatus::kOk);
  EXPECT_EQ(b, 0xcd);
}

TEST(BusPaging, FlashEraseDropsThePage) {
  MemoryBus bus = make_bus();
  const Addr base = 0x0800'2000;  // second flash block
  ASSERT_EQ(bus.write8(kHw, base + 7, 0x12), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 64u);
  ASSERT_EQ(bus.erase_flash_block(kHw, base + 100), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 0u);
  std::uint8_t b = 0;
  ASSERT_EQ(bus.read8(kHw, base + 7, b), BusStatus::kOk);
  EXPECT_EQ(b, 0xff);
  // NOR program into the recycled block works again.
  ASSERT_EQ(bus.write8(kHw, base + 7, 0x34), BusStatus::kOk);
  ASSERT_EQ(bus.read8(kHw, base + 7, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x34);
}

TEST(BusPaging, PartialLastPageClampsToRegionSize) {
  MemoryBus bus;
  bus.map_storage("tail", MemoryKind::kRam, {0x1000, 0x1000 + 4096 + 100});
  ASSERT_EQ(bus.write8(kHw, 0x1000 + 4096 + 50, 0x77), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 64u);
  // Growing past 64 would round to 128; the 100-byte page caps it.
  ASSERT_EQ(bus.write8(kHw, 0x1000 + 4096 + 80, 0x78), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 100u);
  std::uint8_t b = 0;
  ASSERT_EQ(bus.read8(kHw, 0x1000 + 4096 + 50, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x77);
  ASSERT_EQ(bus.read8(kHw, 0x1000 + 4096 + 99, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x00);
}

TEST(BusPaging, BulkPathMatchesBytewiseAcrossPageBoundaries) {
  // A flash program spanning three pages, half of them pre-programmed:
  // bulk fast path and per-byte reference path must produce identical
  // bytes (NOR AND semantics included) and identical resident pages.
  std::vector<std::uint8_t> pattern(3 * 4096 + 123);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>((i * 31) ^ (i >> 7));
  }
  const Addr start = 0x0800'0ffa;  // straddles the first page boundary

  std::vector<std::uint8_t> out[2];
  std::size_t resident[2] = {0, 0};
  int which = 0;
  for (const bool bulk : {true, false}) {
    MemoryBus bus = make_bus();
    bus.set_bulk_enabled(bulk);
    // Pre-program part of the middle page so the AND has set bits to
    // clear.
    ASSERT_EQ(bus.write8(kHw, 0x0800'2000, 0x0f), BusStatus::kOk);
    ASSERT_EQ(bus.write_block(kHw, start, pattern), BusStatus::kOk);
    out[which].resize(pattern.size() + 64);
    ASSERT_EQ(bus.read_block(kHw, start - 32, out[which]), BusStatus::kOk);
    resident[which] = bus.resident_bytes();
    ++which;
  }
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(resident[0], resident[1]);
  // The AND happened: the pre-programmed byte keeps only shared bits.
  MemoryBus check = make_bus();
  ASSERT_EQ(check.write8(kHw, 0x0800'2000, 0x0f), BusStatus::kOk);
  ASSERT_EQ(check.write_block(kHw, start, pattern), BusStatus::kOk);
  std::uint8_t b = 0;
  ASSERT_EQ(check.read8(kHw, 0x0800'2000, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x0f & pattern[0x0800'2000 - start]);
}

TEST(BusPaging, DirtyBitsTrackWriteEventsPerPage) {
  MemoryBus bus = make_bus();
  EXPECT_EQ(bus.dirty_page_count(), 0u);
  EXPECT_EQ(bus.dirty_generation(), 0u);
  ASSERT_EQ(bus.write8(kHw, 0x2000'0010, 0xab), BusStatus::kOk);
  EXPECT_TRUE(bus.page_dirty(0x2000'0010));
  EXPECT_FALSE(bus.page_dirty(0x2000'1000));
  EXPECT_EQ(bus.dirty_page_count(), 1u);
  EXPECT_EQ(bus.dirty_generation(), 1u);
  // Re-dirtying an already-dirty page is not a new transition.
  ASSERT_EQ(bus.write8(kHw, 0x2000'0020, 0xcd), BusStatus::kOk);
  EXPECT_EQ(bus.dirty_generation(), 1u);
  // Clearing re-arms the transition.
  ASSERT_EQ(bus.clear_dirty_page(kHw, 0x2000'0010), BusStatus::kOk);
  EXPECT_FALSE(bus.page_dirty(0x2000'0010));
  ASSERT_EQ(bus.write8(kHw, 0x2000'0030, 0xef), BusStatus::kOk);
  EXPECT_EQ(bus.dirty_generation(), 2u);
}

TEST(BusPaging, FillValueWriteToAbsentPageStillMarksDirty) {
  // The fill-skip optimization must never skip the dirty mark: writing
  // the power-up byte to an untouched page is a write EVENT even though
  // the content is unchanged — an attestation layer that trusts the
  // bitmap would otherwise never re-examine the page.
  MemoryBus bus = make_bus();
  ASSERT_EQ(bus.write8(kHw, 0x2000'0040, 0x00), BusStatus::kOk);  // RAM fill
  EXPECT_EQ(bus.resident_bytes(), 0u);  // no materialization...
  EXPECT_TRUE(bus.page_dirty(0x2000'0040));  // ...but the event is recorded
  ASSERT_EQ(bus.write8(kHw, 0x0800'0040, 0xff), BusStatus::kOk);  // NOR no-op
  EXPECT_EQ(bus.resident_bytes(), 0u);
  EXPECT_TRUE(bus.page_dirty(0x0800'0040));
}

TEST(BusPaging, BulkFillWriteSpanningAbsentPagesStillMarksDirty) {
  // Regression: a bulk write_block of all-fill bytes spanning unallocated
  // pages used to be a candidate for a silent "wrote the fill value"
  // skip. It must mark every spanned page dirty, on both bus paths.
  const std::vector<std::uint8_t> zeros(4096 + 512, 0x00);
  for (const bool bulk : {true, false}) {
    MemoryBus bus = make_bus();
    bus.set_bulk_enabled(bulk);
    ASSERT_EQ(bus.write_block(kHw, 0x2000'0e00, zeros), BusStatus::kOk);
    EXPECT_EQ(bus.resident_bytes(), 0u) << "bulk=" << bulk;
    EXPECT_TRUE(bus.page_dirty(0x2000'0e00)) << "bulk=" << bulk;
    EXPECT_TRUE(bus.page_dirty(0x2000'1000)) << "bulk=" << bulk;
    EXPECT_EQ(bus.dirty_page_count(), 2u) << "bulk=" << bulk;
  }
}

TEST(BusPaging, WriteStraddlingPageBoundaryDirtiesBothPages) {
  const std::vector<std::uint8_t> data{0x11, 0x22, 0x33, 0x44};
  for (const bool bulk : {true, false}) {
    MemoryBus bus = make_bus();
    bus.set_bulk_enabled(bulk);
    ASSERT_EQ(bus.write_block(kHw, 0x2000'0ffe, data), BusStatus::kOk);
    EXPECT_TRUE(bus.page_dirty(0x2000'0ffe)) << "bulk=" << bulk;
    EXPECT_TRUE(bus.page_dirty(0x2000'1000)) << "bulk=" << bulk;
    EXPECT_EQ(bus.dirty_page_count(), 2u) << "bulk=" << bulk;
  }
}

TEST(BusPaging, FlashEraseMarksThePageDirty) {
  MemoryBus bus = make_bus();
  ASSERT_EQ(bus.write8(kHw, 0x0800'2000, 0x12), BusStatus::kOk);
  ASSERT_EQ(bus.clear_dirty_page(kHw, 0x0800'2000), BusStatus::kOk);
  ASSERT_EQ(bus.erase_flash_block(kHw, 0x0800'2000), BusStatus::kOk);
  EXPECT_TRUE(bus.page_dirty(0x0800'2000));
}

TEST(BusPaging, DirtyAuthorityRestrictsClearing) {
  MemoryBus bus = make_bus();
  ASSERT_EQ(bus.write8(kHw, 0x2000'0000, 0xab), BusStatus::kOk);
  // Open mode: anyone may clear.
  ASSERT_EQ(bus.clear_dirty_page(AccessContext{0x0800'0000}, 0x2000'0000),
            BusStatus::kOk);
  ASSERT_EQ(bus.write8(kHw, 0x2000'0000, 0xcd), BusStatus::kOk);
  // Authority installed: only code running from the anchor region (or
  // hardware) may clear; everyone else is denied and the bit survives.
  bus.set_dirty_authority({0x0000'0000, 0x0000'1000});
  EXPECT_EQ(bus.clear_dirty_page(AccessContext{0x0800'0000}, 0x2000'0000),
            BusStatus::kDenied);
  EXPECT_TRUE(bus.page_dirty(0x2000'0000));
  ASSERT_EQ(bus.clear_dirty_page(AccessContext{0x0000'0100}, 0x2000'0000),
            BusStatus::kOk);
  EXPECT_FALSE(bus.page_dirty(0x2000'0000));
  // Hardware is always admitted.
  ASSERT_EQ(bus.write8(kHw, 0x2000'0000, 0xef), BusStatus::kOk);
  EXPECT_EQ(bus.clear_dirty_page(kHw, 0x2000'0000), BusStatus::kOk);
  // Unmapped / MMIO targets fault.
  EXPECT_EQ(bus.clear_dirty_page(kHw, 0xdead'0000), BusStatus::kUnmapped);
}

TEST(BusPaging, LoadInitialMaterializesRomPages) {
  MemoryBus bus = make_bus();
  const std::vector<std::uint8_t> image(5000, 0x5a);
  bus.load_initial(0x0000'0100, image);
  // Two ROM pages touched: all of the first, 1160 bytes of the second
  // (rounded up to 1216).
  EXPECT_EQ(bus.resident_bytes(), 4096u + 1216u);
  // Manufacture-time provisioning is not a runtime write event.
  EXPECT_EQ(bus.dirty_page_count(), 0u);
  std::vector<std::uint8_t> back(5000);
  ASSERT_EQ(bus.read_block(kHw, 0x0000'0100, back), BusStatus::kOk);
  EXPECT_EQ(back, image);
  // ROM stays write-protected on the paged path.
  EXPECT_EQ(bus.write8(AccessContext{0x0800'0000}, 0x0000'0100, 0x00),
            BusStatus::kReadOnly);
}

TEST(BusPaging, PrefixGrowsIn64ByteStepsAtLeastDoubling) {
  MemoryBus bus = make_bus();
  const Addr page = 0x2000'1000;
  ASSERT_EQ(bus.write8(kHw, page + 10, 0x01), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 64u);  // need 11 -> one 64-byte step
  ASSERT_EQ(bus.write8(kHw, page + 70, 0x02), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 128u);  // need 71 -> 128
  ASSERT_EQ(bus.write8(kHw, page + 130, 0x03), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 256u);  // need 131 -> 192, doubled
  ASSERT_EQ(bus.write8(kHw, page + 1000, 0x04), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 1024u);  // need 1001 -> 1024 > 2 * 256
  const std::vector<std::uint8_t> word{0x05, 0x06, 0x07, 0x08};
  ASSERT_EQ(bus.write_block(kHw, page + 3004, word), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 3008u);  // need 3008, already aligned
  ASSERT_EQ(bus.write8(kHw, page + 3100, 0x09), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 4096u);  // 2 * 3008 capped at the page
  // Growing never moved or lost a byte, and the gaps still read fill.
  std::vector<std::uint8_t> back(4096);
  ASSERT_EQ(bus.read_block(kHw, page, back), BusStatus::kOk);
  std::vector<std::uint8_t> expect(4096, 0x00);
  expect[10] = 0x01;
  expect[70] = 0x02;
  expect[130] = 0x03;
  expect[1000] = 0x04;
  std::copy(word.begin(), word.end(), expect.begin() + 3004);
  expect[3100] = 0x09;
  EXPECT_EQ(back, expect);
  // Writes inside the prefix allocate nothing more.
  ASSERT_EQ(bus.write8(kHw, page + 4095, 0x0a), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 4096u);
}

TEST(BusPaging, ReadsPastThePrefixReturnTheRegionFill) {
  MemoryBus bus = make_bus();
  // One short prefix per region kind: ROM via provisioning (a 16-byte
  // key at offset 0x100 -> prefix 0x140), RAM and flash via runtime
  // writes (one byte at 0x10 -> prefix 0x40).
  const std::vector<std::uint8_t> key(16, 0x5a);
  bus.load_initial(0x0000'1100, key);
  ASSERT_EQ(bus.write8(kHw, 0x2000'0010, 0x11), BusStatus::kOk);
  ASSERT_EQ(bus.write8(kHw, 0x0800'1010, 0x22), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 0x140u + 0x40u + 0x40u);
  struct Case {
    Addr page;
    Addr prefix;  // stored prefix length
    std::uint8_t fill;
  };
  for (const Case& c : {Case{0x0000'1000, 0x140, 0x00},
                        Case{0x2000'0000, 0x40, 0x00},
                        Case{0x0800'1000, 0x40, 0xff}}) {
    SCOPED_TRACE(::testing::Message() << std::hex << c.page);
    for (const bool bulk : {true, false}) {
      bus.set_bulk_enabled(bulk);
      std::uint8_t b = 0;
      for (const Addr off : {c.prefix, c.prefix + 1, Addr{0xfff}}) {
        ASSERT_EQ(bus.read8(kHw, c.page + off, b), BusStatus::kOk);
        EXPECT_EQ(b, c.fill) << "bulk=" << bulk << " off=" << off;
      }
      // A word and a block straddling the prefix end.
      std::uint32_t w = 0;
      ASSERT_EQ(bus.read32(kHw, c.page + c.prefix - 2, w), BusStatus::kOk);
      EXPECT_EQ(w, c.fill * 0x01010101u) << "bulk=" << bulk;
      std::vector<std::uint8_t> block(0x100);
      ASSERT_EQ(bus.read_block(kHw, c.page + c.prefix - 0x20, block),
                BusStatus::kOk);
      for (const std::uint8_t v : block) {
        ASSERT_EQ(v, c.fill) << "bulk=" << bulk;
      }
    }
  }
  // Reads allocated nothing.
  EXPECT_EQ(bus.resident_bytes(), 0x140u + 0x40u + 0x40u);
}

TEST(BusPaging, FlashProgramIntoGrownPrefixKeepsNorSemantics) {
  // The bytes a prefix grows over read as erased (0xff) before and
  // after the growth, so NOR AND-programming them stores the data as
  // is, while bytes programmed before the growth keep their cleared
  // bits. Bulk and per-byte paths must agree.
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  std::vector<std::uint8_t> out[2];
  int which = 0;
  for (const bool bulk : {true, false}) {
    MemoryBus bus = make_bus();
    bus.set_bulk_enabled(bulk);
    ASSERT_EQ(bus.write8(kHw, 0x0800'3005, 0x0f), BusStatus::kOk);
    ASSERT_EQ(bus.write8(kHw, 0x0800'3040, 0x3c), BusStatus::kOk);
    ASSERT_EQ(bus.write_block(kHw, 0x0800'3040, data), BusStatus::kOk);
    ASSERT_EQ(bus.write8(kHw, 0x0800'3005, 0xf3), BusStatus::kOk);
    out[which].resize(0x400);
    ASSERT_EQ(bus.read_block(kHw, 0x0800'3000, out[which]), BusStatus::kOk);
    const std::vector<std::uint8_t>& o = out[which];
    EXPECT_EQ(o[5], 0x03) << "bulk=" << bulk;  // 0x0f & 0xf3
    EXPECT_EQ(o[0x40], 0x3c & data[0]) << "bulk=" << bulk;
    for (std::size_t i = 1; i < data.size(); ++i) {
      ASSERT_EQ(o[0x40 + i], data[i]) << "bulk=" << bulk << " i=" << i;
    }
    for (std::size_t i = 0x40 + data.size(); i < o.size(); ++i) {
      ASSERT_EQ(o[i], 0xff) << "bulk=" << bulk << " i=" << i;
    }
    ++which;
  }
  EXPECT_EQ(out[0], out[1]);
}

TEST(BusPaging, EraseOfShortPageDropsItAndRegrowsFresh) {
  MemoryBus bus = make_bus();
  const Addr base = 0x0800'4000;
  ASSERT_EQ(bus.write8(kHw, base + 3, 0x00), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 64u);
  ASSERT_EQ(bus.clear_dirty_page(kHw, base), BusStatus::kOk);
  ASSERT_EQ(bus.erase_flash_block(kHw, base + 0xfff), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 0u);
  EXPECT_TRUE(bus.page_dirty(base));
  std::uint8_t b = 0;
  ASSERT_EQ(bus.read8(kHw, base + 3, b), BusStatus::kOk);
  EXPECT_EQ(b, 0xff);
  // Programming high in the erased page grows a fresh prefix whose low
  // bytes read erased, not the pre-erase contents.
  ASSERT_EQ(bus.write8(kHw, base + 2000, 0x12), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 2048u);
  ASSERT_EQ(bus.read8(kHw, base + 3, b), BusStatus::kOk);
  EXPECT_EQ(b, 0xff);
  ASSERT_EQ(bus.read8(kHw, base + 2000, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x12);
}

}  // namespace
}  // namespace ratt::hw
