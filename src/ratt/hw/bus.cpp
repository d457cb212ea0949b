#include "ratt/hw/bus.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace ratt::hw {

std::string to_string(MemoryKind kind) {
  switch (kind) {
    case MemoryKind::kRom:
      return "ROM";
    case MemoryKind::kRam:
      return "RAM";
    case MemoryKind::kFlash:
      return "Flash";
    case MemoryKind::kMmio:
      return "MMIO";
  }
  return "unknown";
}

std::string to_string(BusStatus status) {
  switch (status) {
    case BusStatus::kOk:
      return "ok";
    case BusStatus::kUnmapped:
      return "unmapped";
    case BusStatus::kReadOnly:
      return "read-only";
    case BusStatus::kDenied:
      return "denied";
  }
  return "unknown";
}

void MemoryBus::check_overlap(const AddrRange& range,
                              const std::string& name) const {
  if (range.empty()) {
    throw std::invalid_argument("MemoryBus: empty range for region " + name);
  }
  for (const auto& r : regions_) {
    if (r->info.range.overlaps(range)) {
      throw std::invalid_argument("MemoryBus: region " + name +
                                  " overlaps " + r->info.name);
    }
  }
}

void MemoryBus::map_storage(std::string name, MemoryKind kind,
                            AddrRange range) {
  if (kind == MemoryKind::kMmio) {
    throw std::invalid_argument("MemoryBus: use map_device for MMIO");
  }
  check_overlap(range, name);
  auto region = std::make_unique<Region>();
  region->info = RegionInfo{std::move(name), kind, range};
  // Flash powers up erased (0xff); RAM and ROM are zeroed. No page is
  // allocated yet — untouched pages read as the fill byte directly.
  region->fill = kind == MemoryKind::kFlash ? 0xff : 0x00;
  const std::size_t pages = (range.size() + kPageSize - 1) / kPageSize;
  region->page_index.assign(pages, Region::kNoPage);
  region->dirty.assign((pages + 63) / 64, 0);
  regions_.push_back(std::move(region));
}

void MemoryBus::map_device(std::string name, AddrRange range,
                           MmioDevice& device) {
  check_overlap(range, name);
  auto region = std::make_unique<Region>();
  region->info = RegionInfo{std::move(name), MemoryKind::kMmio, range};
  region->device = &device;
  regions_.push_back(std::move(region));
}

MemoryBus::Region* MemoryBus::find(Addr addr) {
  for (auto& r : regions_) {
    if (r->info.range.contains(addr)) return r.get();
  }
  return nullptr;
}

const MemoryBus::Region* MemoryBus::find(Addr addr) const {
  for (const auto& r : regions_) {
    if (r->info.range.contains(addr)) return r.get();
  }
  return nullptr;
}

const MemoryBus::RegionInfo* MemoryBus::region_at(Addr addr) const {
  const Region* r = find(addr);
  return r != nullptr ? &r->info : nullptr;
}

std::vector<MemoryBus::RegionInfo> MemoryBus::regions() const {
  std::vector<RegionInfo> out;
  out.reserve(regions_.size());
  for (const auto& r : regions_) {
    out.push_back(r->info);
  }
  return out;
}

void MemoryBus::set_fault_capacity(std::size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("MemoryBus: fault capacity must be >= 1");
  }
  fault_capacity_ = capacity;
  clear_faults();
}

std::vector<BusFault> MemoryBus::faults() const {
  std::vector<BusFault> out;
  out.reserve(fault_ring_.size());
  if (fault_ring_.size() < fault_capacity_) {
    out = fault_ring_;
  } else {
    // Full ring: fault_next_ points at the oldest entry.
    out.insert(out.end(), fault_ring_.begin() + fault_next_,
               fault_ring_.end());
    out.insert(out.end(), fault_ring_.begin(),
               fault_ring_.begin() + fault_next_);
  }
  return out;
}

void MemoryBus::clear_faults() {
  fault_ring_.clear();
  fault_next_ = 0;
  faults_total_ = 0;
  faults_dropped_ = 0;
}

void MemoryBus::record_fault(const AccessContext& ctx, Addr addr,
                             AccessType type, BusStatus status) {
  ++faults_total_;
  if (fault_ring_.size() < fault_capacity_) {
    fault_ring_.push_back(BusFault{ctx.pc, addr, type, status});
    return;
  }
  fault_ring_[fault_next_] = BusFault{ctx.pc, addr, type, status};
  fault_next_ = (fault_next_ + 1) % fault_capacity_;
  ++faults_dropped_;
}

BusStatus MemoryBus::access8(const AccessContext& ctx, AccessType type,
                             Addr addr, std::uint8_t* read_out,
                             std::uint8_t write_value) {
  Region* region = find(addr);
  BusStatus status = BusStatus::kOk;
  if (region == nullptr) {
    status = BusStatus::kUnmapped;
  } else if (type == AccessType::kWrite &&
             region->info.kind == MemoryKind::kRom) {
    status = BusStatus::kReadOnly;
  } else if (controller_ != nullptr && ctx.pc != kHardwarePc &&
             !controller_->allows(ctx, type, addr)) {
    status = BusStatus::kDenied;
  }

  if (status == BusStatus::kOk) {
    const Addr offset = addr - region->info.range.begin;
    if (region->device != nullptr) {
      if (type == AccessType::kRead) {
        *read_out = region->device->read(offset);
      } else if (!region->device->write(offset, write_value)) {
        status = BusStatus::kReadOnly;
      }
    } else {
      if (type == AccessType::kRead) {
        *read_out = region->read_byte(offset);
      } else {
        const std::size_t p = offset / kPageSize;
        // Fill-value writes to an absent page leave it unmaterialized —
        // the stored bytes would not change — but the page still dirties:
        // attestation tracks write events, not content diffs.
        const bool keeps_fill =
            region->page_absent(p) &&
            (region->info.kind == MemoryKind::kFlash
                 ? static_cast<std::uint8_t>(region->fill & write_value) ==
                       region->fill
                 : write_value == region->fill);
        if (!keeps_fill) {
          const std::size_t in_page = offset % kPageSize;
          std::uint8_t& b = region->touch_page(p, in_page + 1)[in_page];
          // NOR program: can only clear bits; setting bits needs an
          // erase.
          b = region->info.kind == MemoryKind::kFlash
                  ? static_cast<std::uint8_t>(b & write_value)
                  : write_value;
        }
        mark_page_dirty(*region, p);
      }
    }
  }

  if (status != BusStatus::kOk) {
    record_fault(ctx, addr, type, status);
  }
  return status;
}

BusStatus MemoryBus::read8(const AccessContext& ctx, Addr addr,
                           std::uint8_t& out) {
  return access8(ctx, AccessType::kRead, addr, &out, 0);
}

BusStatus MemoryBus::write8(const AccessContext& ctx, Addr addr,
                            std::uint8_t value) {
  return access8(ctx, AccessType::kWrite, addr, nullptr, value);
}

// Word accessors ride the block paths: one region lookup and one
// access-control window resolution per word instead of one of each per
// byte. Failure semantics are unchanged — the transfer stops at the
// first failing byte (reads deliver nothing, earlier written bytes stay
// written) and exactly one fault is logged at its address, which is
// precisely what the old per-byte loops produced.
BusStatus MemoryBus::read32(const AccessContext& ctx, Addr addr,
                            std::uint32_t& out) {
  std::uint8_t bytes[4];
  const BusStatus s = read_block(ctx, addr, bytes);
  if (s == BusStatus::kOk) out = crypto::load_le32(bytes);
  return s;
}

BusStatus MemoryBus::write32(const AccessContext& ctx, Addr addr,
                             std::uint32_t value) {
  std::uint8_t bytes[4];
  crypto::store_le32(bytes, value);
  return write_block(ctx, addr, bytes);
}

BusStatus MemoryBus::read64(const AccessContext& ctx, Addr addr,
                            std::uint64_t& out) {
  std::uint8_t bytes[8];
  const BusStatus s = read_block(ctx, addr, bytes);
  if (s == BusStatus::kOk) out = crypto::load_le64(bytes);
  return s;
}

BusStatus MemoryBus::write64(const AccessContext& ctx, Addr addr,
                             std::uint64_t value) {
  std::uint8_t bytes[8];
  crypto::store_le64(bytes, value);
  return write_block(ctx, addr, bytes);
}

BusStatus MemoryBus::read_block_bytewise(const AccessContext& ctx, Addr addr,
                                         std::span<std::uint8_t> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const BusStatus s = read8(ctx, addr + static_cast<Addr>(i), out[i]);
    if (s != BusStatus::kOk) return s;
  }
  return BusStatus::kOk;
}

BusStatus MemoryBus::write_block_bytewise(const AccessContext& ctx,
                                          Addr addr, ByteView data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    const BusStatus s = write8(ctx, addr + static_cast<Addr>(i), data[i]);
    if (s != BusStatus::kOk) return s;
  }
  return BusStatus::kOk;
}

Addr MemoryBus::admitted_window_end(const AccessContext& ctx,
                                    AccessType type, Addr addr,
                                    Addr limit) const {
  if (controller_ == nullptr || ctx.pc == kHardwarePc) return limit;
  const AccessWindow w = controller_->allows_window(ctx, type, addr, limit);
  return w.allowed ? w.end : 0;
}

// The bulk fast path walks the request as a sequence of maximal windows:
// each window lies in one region and carries one access-control verdict,
// so the per-byte region find + EA-MPU rule scan collapses to one lookup
// per window and storage bytes move by memcpy. Semantics are identical
// to the per-byte reference path: the transfer stops at the first
// failing byte, exactly one fault is logged for it (with its address),
// and earlier bytes stay transferred.
BusStatus MemoryBus::read_block(const AccessContext& ctx, Addr addr,
                                std::span<std::uint8_t> out) {
  if (!bulk_enabled_) return read_block_bytewise(ctx, addr, out);
  std::size_t done = 0;
  while (done < out.size()) {
    const Addr a = addr + static_cast<Addr>(done);
    Region* region = find(a);
    if (region == nullptr) {
      record_fault(ctx, a, AccessType::kRead, BusStatus::kUnmapped);
      return BusStatus::kUnmapped;
    }
    // 64-bit arithmetic: a + remaining may pass the top of the address
    // space; the region end (<= 2^32 - 1) clamps it back into range.
    const Addr span_limit = static_cast<Addr>(std::min<std::uint64_t>(
        region->info.range.end,
        static_cast<std::uint64_t>(a) + (out.size() - done)));
    const Addr span_end =
        admitted_window_end(ctx, AccessType::kRead, a, span_limit);
    if (span_end == 0) {
      record_fault(ctx, a, AccessType::kRead, BusStatus::kDenied);
      return BusStatus::kDenied;
    }
    const std::size_t n = span_end - a;
    const Addr offset = a - region->info.range.begin;
    if (region->device != nullptr) {
      // MMIO reads stay per byte — device registers may be stateful.
      for (std::size_t i = 0; i < n; ++i) {
        out[done + i] = region->device->read(offset + static_cast<Addr>(i));
      }
    } else {
      // Copy page by page: the stored prefix by memcpy, the rest (all
      // of an absent page) as the fill byte. Reads never allocate.
      std::size_t i = 0;
      while (i < n) {
        const std::size_t off = static_cast<std::size_t>(offset) + i;
        const std::size_t in_page = off % kPageSize;
        const std::size_t chunk =
            std::min<std::size_t>(n - i, kPageSize - in_page);
        const Bytes* page = region->page_at(off / kPageSize);
        const std::size_t stored =
            page == nullptr || page->size() <= in_page
                ? 0
                : std::min(chunk, page->size() - in_page);
        std::uint8_t* dst = out.data() + done + i;
        if (stored != 0) std::memcpy(dst, page->data() + in_page, stored);
        std::memset(dst + stored, region->fill, chunk - stored);
        i += chunk;
      }
    }
    done += n;
  }
  return BusStatus::kOk;
}

BusStatus MemoryBus::write_block(const AccessContext& ctx, Addr addr,
                                 ByteView data) {
  if (!bulk_enabled_) return write_block_bytewise(ctx, addr, data);
  std::size_t done = 0;
  while (done < data.size()) {
    const Addr a = addr + static_cast<Addr>(done);
    Region* region = find(a);
    if (region == nullptr) {
      record_fault(ctx, a, AccessType::kWrite, BusStatus::kUnmapped);
      return BusStatus::kUnmapped;
    }
    // ROM rejects before the access controller is consulted, exactly as
    // in access8.
    if (region->info.kind == MemoryKind::kRom) {
      record_fault(ctx, a, AccessType::kWrite, BusStatus::kReadOnly);
      return BusStatus::kReadOnly;
    }
    const Addr span_limit = static_cast<Addr>(std::min<std::uint64_t>(
        region->info.range.end,
        static_cast<std::uint64_t>(a) + (data.size() - done)));
    const Addr span_end =
        admitted_window_end(ctx, AccessType::kWrite, a, span_limit);
    if (span_end == 0) {
      record_fault(ctx, a, AccessType::kWrite, BusStatus::kDenied);
      return BusStatus::kDenied;
    }
    const std::size_t n = span_end - a;
    const Addr offset = a - region->info.range.begin;
    if (region->device != nullptr) {
      // MMIO writes stay per byte: a read-only register faults at its
      // own address, with the earlier bytes already delivered.
      for (std::size_t i = 0; i < n; ++i) {
        if (!region->device->write(offset + static_cast<Addr>(i),
                                   data[done + i])) {
          record_fault(ctx, a + static_cast<Addr>(i), AccessType::kWrite,
                       BusStatus::kReadOnly);
          return BusStatus::kReadOnly;
        }
      }
    } else if (region->info.kind == MemoryKind::kFlash) {
      // NOR program semantics per byte (clear bits only), without the
      // per-byte region/rule lookups.
      std::size_t i = 0;
      while (i < n) {
        const std::size_t off = static_cast<std::size_t>(offset) + i;
        const std::size_t in_page = off % kPageSize;
        const std::size_t chunk =
            std::min<std::size_t>(n - i, kPageSize - in_page);
        const std::size_t p = off / kPageSize;
        const std::uint8_t* src = data.data() + done + i;
        // Same fill-skip as access8: programming bytes that keep the
        // erased pattern leaves the page absent but still dirties it.
        const bool keeps_fill =
            region->page_absent(p) &&
            std::all_of(src, src + chunk, [&](std::uint8_t v) {
              return static_cast<std::uint8_t>(region->fill & v) ==
                     region->fill;
            });
        if (!keeps_fill) {
          std::uint8_t* dst = region->touch_page(p, in_page + chunk) + in_page;
          for (std::size_t j = 0; j < chunk; ++j) {
            dst[j] = static_cast<std::uint8_t>(dst[j] & src[j]);
          }
        }
        mark_page_dirty(*region, p);
        i += chunk;
      }
    } else {
      std::size_t i = 0;
      while (i < n) {
        const std::size_t off = static_cast<std::size_t>(offset) + i;
        const std::size_t in_page = off % kPageSize;
        const std::size_t chunk =
            std::min<std::size_t>(n - i, kPageSize - in_page);
        const std::size_t p = off / kPageSize;
        const std::uint8_t* src = data.data() + done + i;
        const bool keeps_fill =
            region->page_absent(p) &&
            std::all_of(src, src + chunk,
                        [&](std::uint8_t v) { return v == region->fill; });
        if (!keeps_fill) {
          std::memcpy(region->touch_page(p, in_page + chunk) + in_page, src,
                      chunk);
        }
        mark_page_dirty(*region, p);
        i += chunk;
      }
    }
    done += n;
  }
  return BusStatus::kOk;
}

BusStatus MemoryBus::erase_flash_block(const AccessContext& ctx,
                                       Addr addr) {
  Region* region = find(addr);
  BusStatus status = BusStatus::kOk;
  if (region == nullptr) {
    status = BusStatus::kUnmapped;
  } else if (region->info.kind != MemoryKind::kFlash) {
    status = BusStatus::kReadOnly;
  }
  Addr block_begin = 0;
  Addr block_end = 0;
  if (status == BusStatus::kOk) {
    // Block boundaries are relative to the region base.
    const Addr offset = addr - region->info.range.begin;
    block_begin = region->info.range.begin +
                  (offset / kFlashBlockSize) * kFlashBlockSize;
    block_end = std::min(block_begin + kFlashBlockSize,
                         region->info.range.end);
    if (controller_ != nullptr && ctx.pc != kHardwarePc) {
      if (bulk_enabled_) {
        // Access control per verdict window: any denied byte lies at the
        // start of some denied window, so walking window ends finds it.
        for (Addr a = block_begin; a < block_end;) {
          const AccessWindow w = controller_->allows_window(
              ctx, AccessType::kWrite, a, block_end);
          if (!w.allowed) {
            status = BusStatus::kDenied;
            break;
          }
          a = w.end;
        }
      } else {
        for (Addr a = block_begin; a < block_end; ++a) {
          if (!controller_->allows(ctx, AccessType::kWrite, a)) {
            status = BusStatus::kDenied;
            break;
          }
        }
      }
    }
  }
  if (status != BusStatus::kOk) {
    record_fault(ctx, addr, AccessType::kWrite, status);
    return status;
  }
  // kPageSize == kFlashBlockSize and both are relative to the region
  // base, so the erased block is exactly one page: drop the page and let
  // the fill byte (0xff) stand in for the erased contents.
  const std::size_t p =
      (block_begin - region->info.range.begin) / kPageSize;
  region->drop_page(p);
  // An erase mutates storage like any write: the page dirties even when
  // it was already erased (absent).
  mark_page_dirty(*region, p);
  return BusStatus::kOk;
}

void MemoryBus::mark_page_dirty(Region& region, std::size_t p) {
  std::uint64_t& word = region.dirty[p >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (p & 63);
  if ((word & bit) == 0) {
    word |= bit;
    ++dirty_generation_;
  }
}

bool MemoryBus::page_dirty(Addr addr) const {
  const Region* region = find(addr);
  if (region == nullptr || region->device != nullptr) return false;
  return region->page_is_dirty((addr - region->info.range.begin) /
                               kPageSize);
}

std::size_t MemoryBus::dirty_page_count() const {
  std::size_t total = 0;
  for (const auto& r : regions_) {
    for (const std::uint64_t word : r->dirty) {
      total += static_cast<std::size_t>(std::popcount(word));
    }
  }
  return total;
}

BusStatus MemoryBus::clear_dirty_page(const AccessContext& ctx, Addr addr) {
  Region* region = find(addr);
  if (region == nullptr || region->device != nullptr) {
    record_fault(ctx, addr, AccessType::kWrite, BusStatus::kUnmapped);
    return BusStatus::kUnmapped;
  }
  if (ctx.pc != kHardwarePc && !dirty_authority_.empty() &&
      !dirty_authority_.contains(ctx.pc)) {
    record_fault(ctx, addr, AccessType::kWrite, BusStatus::kDenied);
    return BusStatus::kDenied;
  }
  const std::size_t p = (addr - region->info.range.begin) / kPageSize;
  region->dirty[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
  return BusStatus::kOk;
}

void MemoryBus::load_initial(Addr addr, ByteView data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const Addr a = addr + static_cast<Addr>(done);
    Region* region = find(a);
    if (region == nullptr || region->device != nullptr) {
      throw std::invalid_argument(
          "MemoryBus::load_initial: target not storage-backed");
    }
    const Addr offset = a - region->info.range.begin;
    const std::size_t n = std::min<std::size_t>(
        data.size() - done, region->info.range.size() - offset);
    std::size_t i = 0;
    while (i < n) {
      const std::size_t off = static_cast<std::size_t>(offset) + i;
      const std::size_t in_page = off % kPageSize;
      const std::size_t chunk =
          std::min<std::size_t>(n - i, kPageSize - in_page);
      std::memcpy(region->touch_page(off / kPageSize, in_page + chunk) +
                      in_page,
                  data.data() + done + i, chunk);
      i += chunk;
    }
    done += n;
  }
}

bool MemoryBus::load_initial_shared(Addr page_base,
                                    const std::shared_ptr<Bytes>& page) {
  Region* region = find(page_base);
  if (region == nullptr || region->device != nullptr) return false;
  const Addr offset = page_base - region->info.range.begin;
  if (offset % kPageSize != 0) return false;
  const std::size_t p = offset / kPageSize;
  if (!region->page_absent(p)) return false;
  if (page == nullptr || page->size() != region->page_len(p)) return false;
  region->page_index[p] = static_cast<std::uint32_t>(region->store.size());
  region->store.push_back(page);
  region->store_page.push_back(static_cast<std::uint32_t>(p));
  return true;
}

std::size_t MemoryBus::resident_bytes() const {
  std::size_t total = 0;
  for (const auto& r : regions_) {
    for (const auto& page : r->store) total += page->size();
  }
  return total;
}

std::size_t MemoryBus::shared_resident_bytes() const {
  std::size_t total = 0;
  for (const auto& r : regions_) {
    for (const auto& page : r->store) {
      if (page.use_count() > 1) total += page->size();
    }
  }
  return total;
}

std::size_t MemoryBus::page_table_bytes() const {
  std::size_t total = 0;
  for (const auto& r : regions_) {
    total += r->page_index.capacity() * sizeof(std::uint32_t) +
             r->store.capacity() * sizeof(std::shared_ptr<Bytes>) +
             r->store_page.capacity() * sizeof(std::uint32_t) +
             r->dirty.capacity() * sizeof(std::uint64_t);
  }
  return total;
}

}  // namespace ratt::hw
