// Copy-on-write shared pages: a fleet template installs one immutable
// page image into many buses (load_initial_shared), readers alias it at
// zero per-device cost, and the first write clones the page for the
// writing bus only. The resident accounting must stay honest through
// install, alias, clone, erase and re-touch.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "ratt/hw/bus.hpp"

namespace ratt::hw {
namespace {

constexpr AccessContext kHw{};

MemoryBus make_bus() {
  MemoryBus bus;
  bus.map_storage("rom", MemoryKind::kRom, {0x0000'0000, 0x0000'4000});
  bus.map_storage("ram", MemoryKind::kRam, {0x2000'0000, 0x2000'4000});
  bus.map_storage("flash", MemoryKind::kFlash, {0x0800'0000, 0x0810'0000});
  return bus;
}

std::shared_ptr<crypto::Bytes> make_page(std::uint8_t seed) {
  auto page = std::make_shared<crypto::Bytes>(4096);
  for (std::size_t i = 0; i < page->size(); ++i) {
    (*page)[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return page;
}

TEST(BusCow, SharedPageAliasedByManyBusesCountsOnceEach) {
  const auto page = make_page(0x11);
  MemoryBus a = make_bus();
  MemoryBus b = make_bus();
  ASSERT_TRUE(a.load_initial_shared(0x0800'2000, page));
  ASSERT_TRUE(b.load_initial_shared(0x0800'2000, page));
  // Both buses report the page resident, and — because the template
  // still holds a reference — both report it as shared, so a fleet
  // accountant can subtract it from the per-device exclusive total.
  EXPECT_EQ(a.resident_bytes(), 4096u);
  EXPECT_EQ(a.shared_resident_bytes(), 4096u);
  EXPECT_EQ(b.shared_resident_bytes(), 4096u);
  std::uint8_t v = 0;
  ASSERT_EQ(a.read8(kHw, 0x0800'2003, v), BusStatus::kOk);
  EXPECT_EQ(v, (*page)[3]);
  ASSERT_EQ(b.read8(kHw, 0x0800'2003, v), BusStatus::kOk);
  EXPECT_EQ(v, (*page)[3]);
}

TEST(BusCow, FirstWriteClonesOnlyTheWriter) {
  const auto page = make_page(0x22);
  MemoryBus a = make_bus();
  MemoryBus b = make_bus();
  ASSERT_TRUE(a.load_initial_shared(0x0800'2000, page));
  ASSERT_TRUE(b.load_initial_shared(0x0800'2000, page));
  // NOR-program a byte in bus a: it must clone the page before writing.
  ASSERT_EQ(a.write8(kHw, 0x0800'2005, 0x00), BusStatus::kOk);
  EXPECT_EQ(a.shared_resident_bytes(), 0u);  // a now owns its copy
  EXPECT_EQ(a.resident_bytes(), 4096u);
  EXPECT_EQ(b.shared_resident_bytes(), 4096u);  // b still aliases
  std::uint8_t v = 0xab;
  ASSERT_EQ(a.read8(kHw, 0x0800'2005, v), BusStatus::kOk);
  EXPECT_EQ(v, 0x00);
  // The template page and b's view are untouched by a's write.
  EXPECT_NE((*page)[5], 0x00);
  ASSERT_EQ(b.read8(kHw, 0x0800'2005, v), BusStatus::kOk);
  EXPECT_EQ(v, (*page)[5]);
}

TEST(BusCow, EraseDropsAliasAndRetouchMaterializesFresh) {
  const auto page = make_page(0x33);
  MemoryBus bus = make_bus();
  ASSERT_TRUE(bus.load_initial_shared(0x0800'2000, page));
  ASSERT_EQ(bus.erase_flash_block(kHw, 0x0800'2000), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 0u);
  EXPECT_EQ(bus.shared_resident_bytes(), 0u);
  // The dropped alias never wrote through: the template is intact.
  EXPECT_EQ((*page)[0], static_cast<std::uint8_t>(0x33));
  // Re-touch materializes an exclusive page with the erase fill.
  std::uint8_t v = 0;
  ASSERT_EQ(bus.read8(kHw, 0x0800'2000, v), BusStatus::kOk);
  EXPECT_EQ(v, 0xff);
  ASSERT_EQ(bus.write8(kHw, 0x0800'2000, 0x5a), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 64u);
  EXPECT_EQ(bus.shared_resident_bytes(), 0u);
}

TEST(BusCow, CloneOfSharedPageStaysFullLength) {
  // Shared template pages are full pages; the copy-on-write clone keeps
  // the whole page, so later writes anywhere in it allocate nothing.
  const auto page = make_page(0x3c);
  MemoryBus bus = make_bus();
  ASSERT_TRUE(bus.load_initial_shared(0x0800'2000, page));
  ASSERT_EQ(bus.write8(kHw, 0x0800'2001, 0x00), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 4096u);
  EXPECT_EQ(bus.shared_resident_bytes(), 0u);
  ASSERT_EQ(bus.write8(kHw, 0x0800'2ffe, 0x00), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 4096u);
  std::vector<std::uint8_t> back(4096);
  ASSERT_EQ(bus.read_block(kHw, 0x0800'2000, back), BusStatus::kOk);
  std::vector<std::uint8_t> expect(page->begin(), page->end());
  expect[1] = 0x00;
  expect[0xffe] = 0x00;
  EXPECT_EQ(back, expect);
  // The template keeps its bytes.
  EXPECT_NE((*page)[1], 0x00);
  EXPECT_NE((*page)[0xffe], 0x00);
}

TEST(BusCow, InstallRejectsBadTargets) {
  const auto page = make_page(0x44);
  MemoryBus bus = make_bus();
  // Unmapped address and unaligned base are refused.
  EXPECT_FALSE(bus.load_initial_shared(0xdead'0000, page));
  EXPECT_FALSE(bus.load_initial_shared(0x0800'2100, page));
  // Wrong page size is refused (the tail page of a region may be short).
  const auto runt = std::make_shared<crypto::Bytes>(100, std::uint8_t{0});
  EXPECT_FALSE(bus.load_initial_shared(0x0800'2000, runt));
  // Occupied slots are refused — shared install is provisioning-time
  // only, it must never silently replace materialized state.
  ASSERT_EQ(bus.write8(kHw, 0x2000'0000, 0x01), BusStatus::kOk);
  EXPECT_FALSE(bus.load_initial_shared(0x2000'0000, page));
  // All refusals left accounting untouched beyond that one RAM page.
  EXPECT_EQ(bus.resident_bytes(), 64u);
  EXPECT_EQ(bus.shared_resident_bytes(), 0u);
}

TEST(BusCow, PageTableBytesReportedSeparatelyFromPages) {
  MemoryBus bus = make_bus();
  // The sparse page index exists as soon as storage is mapped, and is
  // never folded into resident_bytes (those are content pages only).
  EXPECT_GT(bus.page_table_bytes(), 0u);
  EXPECT_EQ(bus.resident_bytes(), 0u);
  const std::size_t before = bus.page_table_bytes();
  ASSERT_EQ(bus.write8(kHw, 0x2000'0000, 0xab), BusStatus::kOk);
  EXPECT_GE(bus.page_table_bytes(), before);
  EXPECT_EQ(bus.resident_bytes(), 64u);
}

TEST(BusCow, SharedReadPathMatchesExclusivePath) {
  // Reading through an aliased page must be byte-identical to reading a
  // bus that loaded the same image privately, across word and block
  // accessors and page boundaries.
  auto page0 = make_page(0x55);
  auto page1 = make_page(0x66);
  MemoryBus shared = make_bus();
  ASSERT_TRUE(shared.load_initial_shared(0x0800'2000, page0));
  ASSERT_TRUE(shared.load_initial_shared(0x0800'3000, page1));
  MemoryBus priv = make_bus();
  crypto::Bytes image;
  image.insert(image.end(), page0->begin(), page0->end());
  image.insert(image.end(), page1->begin(), page1->end());
  priv.load_initial(0x0800'2000, image);

  std::vector<std::uint8_t> a(8192), b(8192);
  ASSERT_EQ(shared.read_block(kHw, 0x0800'2000, a), BusStatus::kOk);
  ASSERT_EQ(priv.read_block(kHw, 0x0800'2000, b), BusStatus::kOk);
  EXPECT_EQ(a, b);
  std::uint32_t w1 = 0, w2 = 0;
  ASSERT_EQ(shared.read32(kHw, 0x0800'2ffe, w1), BusStatus::kOk);
  ASSERT_EQ(priv.read32(kHw, 0x0800'2ffe, w2), BusStatus::kOk);
  EXPECT_EQ(w1, w2);
  std::uint64_t d1 = 0, d2 = 0;
  ASSERT_EQ(shared.read64(kHw, 0x0800'2ffc, d1), BusStatus::kOk);
  ASSERT_EQ(priv.read64(kHw, 0x0800'2ffc, d2), BusStatus::kOk);
  EXPECT_EQ(d1, d2);
}

}  // namespace
}  // namespace ratt::hw
