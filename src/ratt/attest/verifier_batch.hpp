// Shared per-shard batch engine for verifier-side MAC work.
//
// The swarm's verifier hot path computes two HMAC-SHA1 tags per round
// (request authentication + the expected response measurement). One
// VerifierBatch per shard gives every Verifier in the shard a shared
// multi-buffer MacBatch scratch plus batch-occupancy telemetry; the
// Verifier itself decides what to batch (it precomputes an 8-round
// lookahead window — see Verifier::set_batch_engine — because a
// lazily-materialized fleet rarely has 8 devices on the same tick, but
// every device always has 8 future rounds whose challenges come from
// its own deterministic DRBG stream in order).
//
// Counters (verifier.batch.fills / lanes / hits / misses) register
// lazily on the first actual batch fill, so scalar runs
// (SwarmConfig::mac_batch off, non-HMAC algorithms, timestamp freshness)
// keep their registry export byte-identical to the pre-batching code.
//
// Not thread-safe; shards are single-threaded.
#pragma once

#include <cstddef>

#include "ratt/crypto/mac_batch.hpp"
#include "ratt/obs/observer.hpp"

namespace ratt::attest {

class VerifierBatch {
 public:
  static constexpr std::size_t kLanes = crypto::MacBatch::kMaxLanes;

  VerifierBatch() = default;

  /// Attach telemetry (registry only). Counters appear on first fill.
  void set_observer(const obs::Observer& observer) {
    registry_ = observer.registry;
    fills_ = lanes_ = hits_ = misses_ = nullptr;
  }

  /// Shared multi-buffer scratch; callers re-key per wave.
  crypto::MacBatch& engine() { return engine_; }

  void note_fill(std::size_t lanes);
  void note_hit();
  void note_miss();

 private:
  void ensure_counters();

  crypto::MacBatch engine_;
  obs::Registry* registry_ = nullptr;
  obs::Counter* fills_ = nullptr;
  obs::Counter* lanes_ = nullptr;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
};

}  // namespace ratt::attest
