// The simulated low-end MCU: memory map, EA-MPU, interrupt controller and
// cycle counter, assembled after the Intel Siskiyou Peak / openMSP430
// class of devices the paper evaluates on (24 MHz, 512 KB RAM).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ratt/hw/bus.hpp"
#include "ratt/hw/eampu.hpp"
#include "ratt/hw/irq.hpp"
#include "ratt/hw/timer.hpp"

namespace ratt::hw {

class Mcu {
 public:
  struct Layout {
    AddrRange rom{0x00000000, 0x00008000};      // 32 KB: Code_Attest, boot
    AddrRange flash{0x00010000, 0x00090000};    // 512 KB: application image
    AddrRange ram{0x00100000, 0x00180000};      // 512 KB: paper's RAM size
    Addr idt_base = 0x00100000;                 // IDT at start of RAM
    std::size_t irq_vectors = 8;
    Addr mpu_port_base = 0x00200000;
    /// TrustLite exposes the EA-MPU through memory-mapped configuration
    /// registers; SMART's EA-MAC is hard-wired with no runtime interface
    /// (Sec. 6.1). false omits the config port entirely.
    bool map_mpu_port = true;
    Addr irq_mask_base = 0x00201000;
    std::size_t mpu_capacity = 8;
    std::uint64_t clock_hz = 24'000'000;        // 24 MHz (Table 1)
  };

  Mcu() : Mcu(Layout{}) {}
  explicit Mcu(const Layout& layout);

  Mcu(const Mcu&) = delete;
  Mcu& operator=(const Mcu&) = delete;

  const Layout& layout() const { return layout_; }
  MemoryBus& bus() { return bus_; }
  const MemoryBus& bus() const { return bus_; }
  EaMpu& mpu() { return mpu_; }
  InterruptController& irq() { return irq_; }

  /// Map an additional MMIO device and, if it is also a TickListener,
  /// drive it from the cycle counter.
  void map_device(std::string name, Addr base, Addr size, MmioDevice& dev);
  void add_tick_listener(TickListener& listener);

  /// Advance simulated time. Timers tick and interrupts fire inside.
  void advance_cycles(std::uint64_t n);
  void advance_ms(double ms);

  std::uint64_t cycles() const { return cycles_; }
  double now_ms() const {
    return static_cast<double>(cycles_) * 1000.0 /
           static_cast<double>(layout_.clock_hz);
  }

 private:
  Layout layout_;
  MemoryBus bus_;
  EaMpu mpu_;
  EaMpuConfigPort mpu_port_;
  InterruptController irq_;
  IrqMaskPort irq_mask_port_;
  std::vector<TickListener*> tick_listeners_;
  std::uint64_t cycles_ = 0;
};

/// A piece of simulated software: a named code region plus convenience
/// bus accessors that tag every access with this component's PC. The
/// trusted attestation code, the OS/application, and injected malware are
/// all SoftwareComponents — the EA-MPU tells them apart only by PC, which
/// is the paper's point.
class SoftwareComponent {
 public:
  SoftwareComponent(Mcu& mcu, std::string name, AddrRange code)
      : mcu_(&mcu), name_(std::move(name)), code_(code) {}

  const std::string& name() const { return name_; }
  const AddrRange& code_region() const { return code_; }
  AccessContext ctx() const { return AccessContext{code_.begin}; }
  Mcu& mcu() const { return *mcu_; }

  BusStatus read8(Addr addr, std::uint8_t& out) const {
    return mcu_->bus().read8(ctx(), addr, out);
  }
  BusStatus write8(Addr addr, std::uint8_t value) const {
    return mcu_->bus().write8(ctx(), addr, value);
  }
  BusStatus read32(Addr addr, std::uint32_t& out) const {
    return mcu_->bus().read32(ctx(), addr, out);
  }
  BusStatus write32(Addr addr, std::uint32_t value) const {
    return mcu_->bus().write32(ctx(), addr, value);
  }
  BusStatus read64(Addr addr, std::uint64_t& out) const {
    return mcu_->bus().read64(ctx(), addr, out);
  }
  BusStatus write64(Addr addr, std::uint64_t value) const {
    return mcu_->bus().write64(ctx(), addr, value);
  }
  BusStatus read_block(Addr addr, std::span<std::uint8_t> out) const {
    return mcu_->bus().read_block(ctx(), addr, out);
  }
  BusStatus write_block(Addr addr, ByteView data) const {
    return mcu_->bus().write_block(ctx(), addr, data);
  }

 private:
  Mcu* mcu_;
  std::string name_;
  AddrRange code_;
};

}  // namespace ratt::hw
