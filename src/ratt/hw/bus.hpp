// The MCU memory bus: address decoding, region kinds, PC-aware access
// control, and a fault log.
//
// Every software component in the simulation (trusted attestation code,
// application, malware) touches memory exclusively through this bus,
// passing the program counter of its code region. The execution-aware
// memory protection unit (EA-MPU, eampu.hpp) is consulted on every access,
// which is exactly how the paper's protections for K_Attest, counter_R and
// the clock are enforced (Sec. 6.1-6.2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ratt/crypto/bytes.hpp"
#include "ratt/hw/addr.hpp"

namespace ratt::hw {

using crypto::Bytes;
using crypto::ByteView;

enum class MemoryKind : std::uint8_t {
  kRom,    // write attempts always fail (hardware)
  kRam,
  kFlash,  // NOR semantics: program clears bits (AND), erase sets a whole
           // block to 0xff; erased state is 0xff
  kMmio,   // backed by a device, not by storage
};

std::string to_string(MemoryKind kind);

enum class AccessType : std::uint8_t { kRead, kWrite };

enum class BusStatus : std::uint8_t {
  kOk,
  kUnmapped,    // no region decodes this address
  kReadOnly,    // write to ROM (or a read-only MMIO register)
  kDenied,      // blocked by the access controller (EA-MPU)
};

std::string to_string(BusStatus status);

/// The bus tags every access with the program counter of the initiator.
/// kHardwarePc marks accesses made by hardware itself (interrupt dispatch,
/// timer update); the access controller always admits those.
inline constexpr Addr kHardwarePc = 0xffffffffu;

struct AccessContext {
  Addr pc = kHardwarePc;
};

/// A memory-mapped device: reads/writes at offsets within its region.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;

  virtual std::string name() const = 0;

  /// Byte read at `offset`; MMIO reads always succeed within the region.
  virtual std::uint8_t read(Addr offset) = 0;

  /// Byte write at `offset`; returns false if the register is read-only
  /// (surfaced to the initiator as BusStatus::kReadOnly).
  virtual bool write(Addr offset, std::uint8_t value) = 0;
};

/// Verdict for a contiguous window of addresses: `allowed` holds for
/// every address in [addr, end). Lets the bus resolve access control
/// once per window instead of once per byte on bulk transfers.
struct AccessWindow {
  bool allowed = false;
  Addr end = 0;  // exclusive; > the queried addr, <= the queried limit
};

/// PC-aware access policy; implemented by the EA-MPU.
class AccessController {
 public:
  virtual ~AccessController() = default;

  /// Whether `ctx.pc` may perform `type` at `addr`.
  virtual bool allows(const AccessContext& ctx, AccessType type,
                      Addr addr) const = 0;

  /// The verdict at `addr` plus the largest `end <= limit` such that the
  /// verdict is constant over [addr, end). The conservative default
  /// answers one byte at a time; the EA-MPU overrides it with a
  /// rule-boundary scan. Requires addr < limit.
  virtual AccessWindow allows_window(const AccessContext& ctx,
                                     AccessType type, Addr addr,
                                     Addr limit) const {
    (void)limit;
    return AccessWindow{allows(ctx, type, addr), addr + 1};
  }
};

/// One entry in the bus fault log.
struct BusFault {
  Addr pc = 0;
  Addr addr = 0;
  AccessType type = AccessType::kRead;
  BusStatus status = BusStatus::kOk;
};

/// Address decoder + storage + policy enforcement point.
class MemoryBus {
 public:
  /// Map a storage-backed region (ROM/RAM/Flash). Throws on overlap.
  void map_storage(std::string name, MemoryKind kind, AddrRange range);

  /// Map a device-backed region. The device must outlive the bus.
  void map_device(std::string name, AddrRange range, MmioDevice& device);

  /// Install (or clear) the access controller consulted on every access.
  void set_access_controller(const AccessController* controller) {
    controller_ = controller;
  }

  /// Bulk transfers normally run the window-coalesced fast path: the
  /// (region, EA-MPU verdict) pair is resolved once per maximal window
  /// and storage-backed bytes move by memcpy. `false` selects the
  /// per-byte reference path — same statuses, same storage mutations,
  /// same fault log, byte for byte — kept for differential testing (the
  /// bus suites, bench_memory_mac and the fleet byte-compare tests).
  void set_bulk_enabled(bool enabled) { bulk_enabled_ = enabled; }
  bool bulk_enabled() const { return bulk_enabled_; }

  // -- Byte and word accessors. Word accessors are little-endian and fail
  //    atomically: on any non-Ok status no bytes are transferred.
  BusStatus read8(const AccessContext& ctx, Addr addr, std::uint8_t& out);
  BusStatus write8(const AccessContext& ctx, Addr addr, std::uint8_t value);
  BusStatus read32(const AccessContext& ctx, Addr addr, std::uint32_t& out);
  BusStatus write32(const AccessContext& ctx, Addr addr, std::uint32_t value);
  BusStatus read64(const AccessContext& ctx, Addr addr, std::uint64_t& out);
  BusStatus write64(const AccessContext& ctx, Addr addr, std::uint64_t value);

  /// Bulk read of `out.size()` bytes starting at `addr`. Stops at the first
  /// failing byte and reports its status; `out` is only valid on kOk.
  BusStatus read_block(const AccessContext& ctx, Addr addr,
                       std::span<std::uint8_t> out);

  /// Bulk write; stops at the first failing byte (earlier bytes stay
  /// written, as on real hardware).
  BusStatus write_block(const AccessContext& ctx, Addr addr, ByteView data);

  /// NOR-flash erase granularity.
  static constexpr Addr kFlashBlockSize = 4096;

  /// Erase the flash block containing `addr` (all bytes to 0xff). Fails
  /// with kReadOnly on non-flash regions; the access controller must
  /// grant write access to every byte of the block.
  BusStatus erase_flash_block(const AccessContext& ctx, Addr addr);

  /// Load initial contents into a storage region, bypassing both the
  /// access controller and ROM read-only-ness. For ROM images and secure
  /// boot only — never reachable from simulated software.
  void load_initial(Addr addr, ByteView data);

  /// Install a prepared full page by shared reference instead of
  /// copying: the fleet's secure-boot fast path builds each segment page
  /// once per template and every identically-mapped device aliases it,
  /// so a thousand devices booting the same image share one physical
  /// copy until somebody writes it (copy-on-write — the first mutating
  /// access clones a private page). Returns false and installs nothing
  /// unless `page_base` starts a page of a storage region, that page is
  /// still absent, and `page->size()` equals the page's length; the
  /// caller falls back to load_initial.
  bool load_initial_shared(Addr page_base,
                           const std::shared_ptr<Bytes>& page);

  /// Region lookup for introspection; nullptr if unmapped.
  struct RegionInfo {
    std::string name;
    MemoryKind kind;
    AddrRange range;
  };
  const RegionInfo* region_at(Addr addr) const;
  std::vector<RegionInfo> regions() const;

  /// The fault log is a bounded ring of the most recent faults: a
  /// sustained adversary flood overwrites the oldest entries instead of
  /// growing the log without limit. Dropped (overwritten) entries are
  /// counted so observability can surface the flood's true size.
  static constexpr std::size_t kDefaultFaultCapacity = 256;

  /// Resize the ring (>= 1); existing entries and counters are cleared.
  void set_fault_capacity(std::size_t capacity);
  std::size_t fault_capacity() const { return fault_capacity_; }

  /// The retained faults, oldest first (at most fault_capacity()).
  std::vector<BusFault> faults() const;
  /// Faults ever logged, including overwritten ones.
  std::uint64_t faults_total() const { return faults_total_; }
  /// Faults lost to ring overwrite since the last clear_faults().
  std::uint64_t faults_dropped() const { return faults_dropped_; }
  void clear_faults();

  /// Bytes of backing store actually allocated: the stored prefixes of
  /// materialized pages, summed over all storage regions (a page keeps
  /// only the bytes up to its highest write, in 64-byte steps).
  /// Mapped-but-untouched address space costs only its page table, which
  /// is what lets a mostly-idle million-device fleet map a megabyte of
  /// flash per device without buying the RAM.
  /// Pages aliased from a shared template count at full size here; see
  /// shared_resident_bytes() for the portion a fleet report should
  /// amortize across the devices referencing the same physical copy.
  std::size_t resident_bytes() const;

  /// The subset of resident_bytes() living in pages this bus shares with
  /// other owners (the fleet template and sibling devices). Zero once
  /// every shared page has been copy-on-write cloned.
  std::size_t shared_resident_bytes() const;

  /// Heap bytes of the paging metadata itself: page-index slots, dense
  /// store bookkeeping and dirty bitmaps. The honest remainder of a
  /// per-device footprint report — this is what a mapped-but-untouched
  /// region actually costs.
  std::size_t page_table_bytes() const;

  // -- Dirty-page tracking (incremental attestation, DESIGN.md §4i).
  //    Every successful storage mutation — byte write, bulk write, flash
  //    program or erase — marks its page dirty, including writes of the
  //    fill value to a not-yet-materialized page (the write *event* is
  //    what attestation cares about, not whether the stored bytes
  //    changed). load_initial() is manufacture/boot provisioning and does
  //    not mark. Dirty bits are cleared only through clear_dirty_page(),
  //    which the dirty authority restricts to the trust anchor's PC.

  /// Whether the page containing `addr` is dirty. False for unmapped or
  /// device-backed addresses (MMIO has no storage to track).
  bool page_dirty(Addr addr) const;

  /// Total dirty pages across all storage regions.
  std::size_t dirty_page_count() const;

  /// Monotone counter bumped on every clean->dirty page transition. A
  /// snapshot of it tells an observer whether *any* page dirtied since,
  /// without walking the bitmaps.
  std::uint64_t dirty_generation() const { return dirty_generation_; }

  /// Restrict clear_dirty_page() to initiators whose PC lies in `code`
  /// (the trust anchor's code region). kHardwarePc is always admitted.
  /// An empty range (the default) leaves clearing open to everyone —
  /// the naive configuration the rollback regression suite attacks.
  void set_dirty_authority(AddrRange code) { dirty_authority_ = code; }
  AddrRange dirty_authority() const { return dirty_authority_; }

  /// Clear the dirty bit of the page containing `addr`. kUnmapped for
  /// unmapped or MMIO addresses, kDenied when a non-empty authority does
  /// not cover `ctx.pc`; both are logged as write faults at `addr`.
  BusStatus clear_dirty_page(const AccessContext& ctx, Addr addr);

 private:
  /// Page granularity of the lazily-allocated backing store. Equal to the
  /// flash erase block, so an erase drops exactly one page.
  static constexpr std::size_t kPageSize = 4096;
  static_assert(kPageSize == static_cast<std::size_t>(kFlashBlockSize));
  /// Granularity of a page's high-water prefix.
  static constexpr std::size_t kPrefixGrain = 64;

  struct Region {
    RegionInfo info;
    // Storage-backed regions are paged sparsely: `page_index` holds one
    // 32-bit slot per page of address space (kNoPage = absent) pointing
    // into the dense `store` of materialized pages, and `store_page`
    // maps each store entry back to its page number so an erase can
    // drop a page by swapping with the last entry. Absent pages read as
    // `fill` (0xff for erased flash, 0x00 for ROM/RAM — exactly the
    // power-up contents) and materialize on first non-fill write. A
    // materialized page keeps only its high-water prefix: the bytes
    // from the page start up to the highest byte ever written, rounded
    // up to kPrefixGrain; bytes past the prefix read as `fill`. A page
    // whose prefix reaches page_len() is a full page (the last page is
    // clamped to the region size). So a 16-byte key costs one 64-byte
    // prefix, and a mapped-but-untouched 512 KB region costs only its
    // 4-byte-per-page index.
    static constexpr std::uint32_t kNoPage = 0xffffffffu;
    std::vector<std::uint32_t> page_index;  // one slot per page of space
    // Materialized pages, dense. shared_ptr so a fleet template can
    // alias one physical page into thousands of buses; use_count > 1
    // means somebody else also holds it and a write must clone first.
    std::vector<std::shared_ptr<Bytes>> store;
    std::vector<std::uint32_t> store_page;  // page number per store entry
    std::uint8_t fill = 0x00;
    MmioDevice* device = nullptr;  // device-backed regions
    // One bit per page, set on every successful write to the page and
    // cleared only via MemoryBus::clear_dirty_page.
    std::vector<std::uint64_t> dirty;

    bool page_is_dirty(std::size_t p) const {
      return ((dirty[p >> 6] >> (p & 63)) & 1) != 0;
    }

    std::size_t page_len(std::size_t p) const {
      return std::min<std::size_t>(kPageSize,
                                   info.range.size() - p * kPageSize);
    }
    bool page_absent(std::size_t p) const {
      return page_index[p] == kNoPage;
    }
    /// The materialized page holding slot `p`, or nullptr if absent.
    const Bytes* page_at(std::size_t p) const {
      const std::uint32_t idx = page_index[p];
      return idx == kNoPage ? nullptr : store[idx].get();
    }
    std::uint8_t read_byte(Addr offset) const {
      const Bytes* page = page_at(offset / kPageSize);
      const std::size_t in_page = offset % kPageSize;
      return page != nullptr && in_page < page->size() ? (*page)[in_page]
                                                       : fill;
    }
    /// Prefix length for page `p` once it must hold [0, need) and
    /// currently holds `have` bytes: `need` rounded up to kPrefixGrain,
    /// at least double `have` (so a page walked upward byte by byte
    /// reallocates O(log) times), capped at the page length.
    std::size_t grown_len(std::size_t p, std::size_t need,
                          std::size_t have) const {
      const std::size_t rounded =
          (need + kPrefixGrain - 1) / kPrefixGrain * kPrefixGrain;
      return std::min(page_len(p), std::max(rounded, 2 * have));
    }
    /// Page `p`, materialized (filled with `fill`) if absent and its
    /// prefix grown to cover [0, need), for WRITING: a page aliased from
    /// the fleet template is copy-on-write cloned here (at full length,
    /// as shared pages always are), so the caller always gets a
    /// privately-owned page it may mutate. Requires need <= page_len(p).
    std::uint8_t* touch_page(std::size_t p, std::size_t need) {
      std::uint32_t idx = page_index[p];
      if (idx == kNoPage) {
        idx = static_cast<std::uint32_t>(store.size());
        store.push_back(std::make_shared<Bytes>());  // grown below
        store_page.push_back(static_cast<std::uint32_t>(p));
        page_index[p] = idx;
      } else if (store[idx].use_count() > 1) {
        store[idx] = std::make_shared<Bytes>(*store[idx]);
      }
      Bytes& page = *store[idx];
      if (page.size() < need) {
        // reserve first so the allocation is exactly the new prefix,
        // not the vector's own growth policy.
        const std::size_t len = grown_len(p, need, page.size());
        page.reserve(len);
        page.resize(len, fill);
      }
      return page.data();
    }
    /// Release page `p`'s backing store (flash erase): the last store
    /// entry swaps into the vacated slot so the store stays dense.
    void drop_page(std::size_t p) {
      const std::uint32_t idx = page_index[p];
      if (idx == kNoPage) return;
      const auto last = static_cast<std::uint32_t>(store.size() - 1);
      if (idx != last) {
        store[idx] = std::move(store[last]);
        store_page[idx] = store_page[last];
        page_index[store_page[idx]] = idx;
      }
      store.pop_back();
      store_page.pop_back();
      page_index[p] = kNoPage;
    }
  };

  Region* find(Addr addr);
  const Region* find(Addr addr) const;
  void check_overlap(const AddrRange& range, const std::string& name) const;
  BusStatus access8(const AccessContext& ctx, AccessType type, Addr addr,
                    std::uint8_t* read_out, std::uint8_t write_value);
  void record_fault(const AccessContext& ctx, Addr addr, AccessType type,
                    BusStatus status);
  BusStatus read_block_bytewise(const AccessContext& ctx, Addr addr,
                                std::span<std::uint8_t> out);
  BusStatus write_block_bytewise(const AccessContext& ctx, Addr addr,
                                 ByteView data);
  /// Resolves access control for [addr, limit): either the full span is
  /// admitted (hardware PC / no controller), or the controller's window
  /// verdict applies. Returns the allowed window end, or 0 on denial.
  Addr admitted_window_end(const AccessContext& ctx, AccessType type,
                           Addr addr, Addr limit) const;
  /// Set page `p`'s dirty bit; bumps dirty_generation_ on a clean->dirty
  /// transition.
  void mark_page_dirty(Region& region, std::size_t p);

  std::vector<std::unique_ptr<Region>> regions_;
  const AccessController* controller_ = nullptr;
  bool bulk_enabled_ = true;
  std::vector<BusFault> fault_ring_;
  std::size_t fault_capacity_ = kDefaultFaultCapacity;
  std::size_t fault_next_ = 0;  // ring write position once full
  std::uint64_t faults_total_ = 0;
  std::uint64_t faults_dropped_ = 0;
  std::uint64_t dirty_generation_ = 0;
  AddrRange dirty_authority_{};  // empty = clearing open to everyone
};

}  // namespace ratt::hw
