// Deferred secure boot (ProverDevice's DeferBoot constructors) against the
// eager constructors: across every clock design x freshness scheme x
// {per-device image, fleet template} x key placement, a deferred device
// first touched through any entry point must end up byte-identical to an
// eager one — boot status, reference memory, bus contents, fault
// accounting and the response bytes of the rounds that follow.
// Configuration errors must still throw from construction, and a boot
// that throws must leave the device as manufacture left it.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "ratt/attest/prover.hpp"
#include "ratt/attest/verifier.hpp"
#include "ratt/crypto/sha256.hpp"
#include "ratt/obs/metrics.hpp"

namespace ratt::attest {
namespace {

const crypto::Bytes kKey =
    crypto::from_hex("d0d1d2d3d4d5d6d7d8d9dadbdcdddedf");

enum class Touch {
  kHandle,
  kIdle,
  kGroundTruth,
  kReferenceMemory,
  kObserveThenHandle,
};

const char* to_string(Touch t) {
  switch (t) {
    case Touch::kHandle:
      return "handle";
    case Touch::kIdle:
      return "idle_ms";
    case Touch::kGroundTruth:
      return "ground_truth_ticks";
    case Touch::kReferenceMemory:
      return "reference_memory";
    case Touch::kObserveThenHandle:
      return "set_observer+handle";
  }
  return "?";
}

ProverConfig make_config(ClockDesign clock, FreshnessScheme scheme,
                         bool key_in_rom) {
  ProverConfig c;
  c.clock = clock;
  c.scheme = scheme;
  c.key_in_rom = key_in_rom;
  c.measured_bytes = 1024;
  c.timestamp_window_ticks = 100'000'000;
  c.timestamp_skew_ticks = 100'000'000;
  return c;
}

/// SHA-256 over every storage byte of the device (ROM, flash, RAM), read
/// with the hardware context.
std::string bus_digest(hw::Mcu& mcu) {
  crypto::Sha256 h;
  hw::MemoryBus& bus = mcu.bus();
  for (const auto& region : bus.regions()) {
    if (region.kind == hw::MemoryKind::kMmio) continue;
    crypto::Bytes bytes(region.range.size());
    EXPECT_EQ(bus.read_block(hw::AccessContext{hw::kHardwarePc},
                             region.range.begin, bytes),
              hw::BusStatus::kOk)
        << region.name;
    h.update(bytes);
  }
  return crypto::to_hex(h.finish());
}

using Param = std::tuple<ClockDesign, FreshnessScheme, bool /*template*/,
                         bool /*key_in_rom*/>;

class DeferredBoot : public ::testing::TestWithParam<Param> {
 protected:
  ProverConfig config() const {
    const auto [clock, scheme, tmpl, key_in_rom] = GetParam();
    return make_config(clock, scheme, key_in_rom);
  }
  bool use_template() const { return std::get<2>(GetParam()); }

  std::unique_ptr<ProverDevice> make(const ProverTemplate& tmpl,
                                     bool deferred) const {
    const ProverConfig c = config();
    const crypto::Bytes seed = crypto::from_string("deferred-app");
    if (use_template()) {
      return deferred
                 ? std::make_unique<ProverDevice>(c, kKey, tmpl, kDeferBoot)
                 : std::make_unique<ProverDevice>(c, kKey, tmpl);
    }
    return deferred
               ? std::make_unique<ProverDevice>(c, kKey, seed, kDeferBoot)
               : std::make_unique<ProverDevice>(c, kKey, seed);
  }
};

TEST_P(DeferredBoot, EveryEntryPointMatchesEagerBoot) {
  const ProverConfig c = config();
  if (c.scheme == FreshnessScheme::kTimestamp &&
      c.clock == ClockDesign::kNone) {
    // A configuration error throws from construction, never from a
    // later first use.
    const ProverTemplate tmpl = ProverDevice::make_template(
        make_config(ClockDesign::kHw64, c.scheme, c.key_in_rom),
        crypto::from_string("deferred-template"));
    EXPECT_THROW(make(tmpl, /*deferred=*/true), std::invalid_argument);
    EXPECT_THROW(make(tmpl, /*deferred=*/false), std::invalid_argument);
    return;
  }
  const ProverTemplate tmpl =
      ProverDevice::make_template(c, crypto::from_string("deferred-template"));

  for (const Touch touch :
       {Touch::kHandle, Touch::kIdle, Touch::kGroundTruth,
        Touch::kReferenceMemory, Touch::kObserveThenHandle}) {
    SCOPED_TRACE(to_string(touch));
    const auto eager = make(tmpl, /*deferred=*/false);
    const auto deferred = make(tmpl, /*deferred=*/true);
    EXPECT_TRUE(eager->booted());
    ASSERT_FALSE(deferred->booted());

    // One verifier drives both devices: requests are identical by
    // construction, and its clock reads the eager device (whose ground
    // truth the deferred one must match).
    Verifier::Config vc;
    vc.scheme = c.scheme;
    vc.mac_alg = c.mac_alg;
    vc.clock = [&eager] { return eager->ground_truth_ticks(); };
    Verifier verifier(kKey, vc, crypto::from_string("deferred-vrf"));

    obs::Registry eager_reg;
    obs::Registry deferred_reg;
    const auto round = [&] {
      const AttestRequest req = verifier.make_request();
      const AttestOutcome a = eager->handle(req);
      const AttestOutcome b = deferred->handle(req);
      EXPECT_EQ(a.status, AttestStatus::kOk);
      EXPECT_EQ(a.status, b.status);
      EXPECT_EQ(a.device_ms, b.device_ms);
      EXPECT_EQ(a.response.to_bytes(), b.response.to_bytes());
      return std::make_pair(req, a.response);
    };

    switch (touch) {
      case Touch::kHandle:
        (void)round();
        break;
      case Touch::kIdle:
        eager->idle_ms(50.0);
        deferred->idle_ms(50.0);
        break;
      case Touch::kGroundTruth:
        EXPECT_EQ(eager->ground_truth_ticks(), deferred->ground_truth_ticks());
        break;
      case Touch::kReferenceMemory:
        EXPECT_EQ(eager->reference_memory(), deferred->reference_memory());
        break;
      case Touch::kObserveThenHandle:
        eager->set_observer(obs::Observer{.registry = &eager_reg});
        deferred->set_observer(obs::Observer{.registry = &deferred_reg});
        EXPECT_FALSE(deferred->booted());
        (void)round();
        break;
    }
    ASSERT_TRUE(deferred->booted());

    EXPECT_EQ(eager->boot_status(), hw::BootStatus::kOk);
    EXPECT_EQ(eager->boot_status(), deferred->boot_status());
    EXPECT_EQ(eager->reference_memory(), deferred->reference_memory());
    EXPECT_EQ(*eager->image_reference(), *deferred->image_reference());
    EXPECT_EQ(*eager->image_reference(), eager->reference_memory());
    EXPECT_EQ(eager->mcu().cycles(), deferred->mcu().cycles());
    EXPECT_TRUE(deferred->mcu().mpu().locked());
    EXPECT_EQ(bus_digest(eager->mcu()), bus_digest(deferred->mcu()));
    EXPECT_EQ(eager->mcu().bus().faults_total(),
              deferred->mcu().bus().faults_total());
    EXPECT_EQ(eager->mcu().bus().faults_dropped(),
              deferred->mcu().bus().faults_dropped());

    // Later rounds, including a replay, answer byte for byte alike.
    verifier.set_reference_memory(eager->image_reference());
    for (int r = 0; r < 2; ++r) {
      eager->idle_ms(100.0);
      deferred->idle_ms(100.0);
      const auto [req, resp] = round();
      EXPECT_TRUE(verifier.check_response(req, resp));
    }
    if (c.scheme != FreshnessScheme::kNone) {
      eager->idle_ms(100.0);
      deferred->idle_ms(100.0);
      const AttestRequest req = verifier.make_request();
      EXPECT_EQ(eager->handle(req).status, AttestStatus::kOk);
      EXPECT_EQ(deferred->handle(req).status, AttestStatus::kOk);
      EXPECT_EQ(eager->handle(req).status, AttestStatus::kNotFresh);
      EXPECT_EQ(deferred->handle(req).status, AttestStatus::kNotFresh);
    }
    EXPECT_EQ(bus_digest(eager->mcu()), bus_digest(deferred->mcu()));
    EXPECT_EQ(eager_reg.to_text(), deferred_reg.to_text());
    if (touch == Touch::kObserveThenHandle) {
      const obs::Counter* dropped =
          deferred_reg.find_counter("prover.bus.faults_dropped");
      ASSERT_NE(dropped, nullptr);
      EXPECT_EQ(dropped->value(), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DeferredBoot,
    ::testing::Combine(
        ::testing::Values(ClockDesign::kNone, ClockDesign::kWritable,
                          ClockDesign::kHw64, ClockDesign::kHw32Div,
                          ClockDesign::kSwClock),
        ::testing::Values(FreshnessScheme::kNone, FreshnessScheme::kNonce,
                          FreshnessScheme::kCounter,
                          FreshnessScheme::kTimestamp),
        ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      // NB: no structured bindings — their commas would split the macro.
      std::string name = to_string(std::get<0>(info.param)) + "_" +
                         to_string(std::get<1>(info.param)) +
                         (std::get<2>(info.param) ? "_template" : "_image") +
                         (std::get<3>(info.param) ? "_rom_key" : "_ram_key");
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(DeferredBootFailure, ThrowingBootLeavesTheManufacturedDevice) {
  // An image too large to allocate makes the image build throw. Eagerly
  // that is a constructor failure (no device at all); deferred, every
  // entry point throws, the device stays unbooted and its memory stays
  // what manufacture left.
  ProverConfig c;
  c.measured_bytes = std::numeric_limits<std::size_t>::max();
  const crypto::Bytes seed = crypto::from_string("deferred-app");
  EXPECT_THROW(ProverDevice(c, kKey, seed), std::length_error);

  ProverDevice deferred(c, kKey, seed, kDeferBoot);
  const std::size_t manufactured = deferred.peek_mcu().bus().resident_bytes();
  EXPECT_THROW(deferred.idle_ms(1.0), std::length_error);
  EXPECT_FALSE(deferred.booted());
  EXPECT_THROW((void)deferred.boot_status(), std::length_error);
  EXPECT_FALSE(deferred.booted());
  EXPECT_EQ(deferred.peek_mcu().bus().resident_bytes(), manufactured);
  EXPECT_EQ(deferred.peek_mcu().cycles(), 0u);
}

TEST(DeferredBootFailure, ConfigErrorsThrowFromConstruction) {
  ProverConfig c;
  c.enable_clock_sync = true;  // needs a clock design
  EXPECT_THROW(ProverDevice(c, kKey, crypto::from_string("app"), kDeferBoot),
               std::invalid_argument);
}

}  // namespace
}  // namespace ratt::attest
