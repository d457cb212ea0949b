// Seeded fuzz of the battery checkpoint parser (PowerMeter::restore, and
// through it WindowedRollup::restore): every truncation of a valid
// checkpoint, random bit flips, and random garbage lines. Whatever the
// input, restore() must not crash, and when it rejects the input the
// meter must be exactly as it was: its checkpoint() text byte-identical
// to the text taken before the call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ratt/obs/power/battery.hpp"
#include "ratt/obs/trace.hpp"

namespace ratt::obs::power {
namespace {

BatteryConfig fuzz_config() {
  BatteryConfig config;
  config.capacity_mj = 50.0;
  config.report_period_ms = 100.0;
  config.sleep_mw = 0.5;
  config.burn_window_ms = 100.0;
  config.burn_history = 4;
  return config;
}

// A meter with several devices and full burn rings; `salt` varies the
// energies so two meters built with different salts checkpoint
// differently.
PowerMeter busy_meter(int salt) {
  PowerMeter meter(fuzz_config());
  for (int i = 1; i <= 30; ++i) {
    TraceRecord rec;
    rec.sim_time_ms = 25.0 * i;
    rec.device_id = static_cast<std::uint64_t>(i % 3 + salt);
    rec.kind = "prover.handle";
    rec.outcome = "ok";
    rec.energy_mj = 0.1 * (i % 7) + 0.01 * salt;
    meter.record(rec);
  }
  meter.finish(800.0);
  return meter;
}

std::string text_of(const PowerMeter& meter) {
  std::ostringstream out;
  meter.checkpoint(out);
  return out.str();
}

bool restore_from(PowerMeter& meter, const std::string& text) {
  std::istringstream in(text);
  return meter.restore(in);
}

class CheckpointFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = text_of(busy_meter(0));
    before_ = text_of(target_);
    ASSERT_NE(source_, before_);
  }

  // Feeds one candidate; returns whether it was accepted. A rejection
  // must leave the target untouched; an acceptance is undone so every
  // trial starts from the same state.
  bool trial(const std::string& input) {
    const bool accepted = restore_from(target_, input);
    if (!accepted) {
      EXPECT_EQ(text_of(target_), before_) << "input:\n" << input;
    } else {
      EXPECT_TRUE(restore_from(target_, before_));
    }
    return accepted;
  }

  PowerMeter target_ = busy_meter(5);
  std::string source_;
  std::string before_;
  std::mt19937_64 rng_{20160605};
};

TEST_F(CheckpointFuzz, EveryTruncationIsRejectedAndHarmless) {
  // Any prefix short of the final "end" line lacks the commit marker.
  for (std::size_t len = 0; len + 1 < source_.size(); ++len) {
    EXPECT_FALSE(trial(source_.substr(0, len))) << "prefix " << len;
  }
  EXPECT_TRUE(trial(source_));
}

TEST_F(CheckpointFuzz, BitFlipsNeverHalfRestore) {
  int rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string input = source_;
    const int flips = 1 + static_cast<int>(rng_() % 3);
    for (int f = 0; f < flips; ++f) {
      input[rng_() % input.size()] ^=
          static_cast<char>(1u << static_cast<unsigned>(rng_() % 8));
    }
    if (!trial(input)) ++rejected;
  }
  // Most flips break a tag, a number or the structure.
  EXPECT_GT(rejected, 1000);
}

TEST_F(CheckpointFuzz, GarbageLinesNeverHalfRestore) {
  const std::string alphabet = "0123456789 .-+eEinfa\nwdbucrptsv";
  for (int i = 0; i < 1000; ++i) {
    std::string input = source_;
    const std::size_t at = rng_() % input.size();
    std::string junk;
    const std::size_t len = 1 + rng_() % 24;
    for (std::size_t k = 0; k < len; ++k) {
      junk.push_back(alphabet[rng_() % alphabet.size()]);
    }
    switch (rng_() % 3) {
      case 0:  // insert
        input.insert(at, junk);
        break;
      case 1:  // overwrite
        input.replace(at, std::min(len, input.size() - at), junk);
        break;
      default:  // cut a span out
        input.erase(at, std::min(len, input.size() - at));
        break;
    }
    trial(input);
  }
  // Wholly random byte strings, including NULs and high bytes.
  for (int i = 0; i < 500; ++i) {
    std::string input(rng_() % 256, '\0');
    for (char& c : input) c = static_cast<char>(rng_() & 0xff);
    EXPECT_FALSE(trial(input));
  }
}

TEST_F(CheckpointFuzz, DroppedOrDuplicatedLinesNeverHalfRestore) {
  std::vector<std::string> lines;
  std::istringstream in(source_);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const bool duplicate : {false, true}) {
      std::string input;
      for (std::size_t j = 0; j < lines.size(); ++j) {
        if (j == i && !duplicate) continue;
        input += lines[j] + '\n';
        if (j == i) input += lines[j] + '\n';
      }
      trial(input);
    }
  }
}

}  // namespace
}  // namespace ratt::obs::power
