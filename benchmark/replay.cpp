#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "ratt/attest/verifier_batch.hpp"
#include "ratt/crypto/drbg.hpp"
#include "ratt/sim/event.hpp"

namespace ratt_bench {

using namespace ratt;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;

// Enough samples that p99 has 100 beyond it.
constexpr std::size_t kCalls = 10000;
// Booting a device is milliseconds with a per-device image (ECDSA
// verify); 1000 samples still leave 10 beyond p99.
constexpr std::size_t kBoots = 1000;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Per-call samples in ns, each less the cost of the timer itself.
class Samples {
 public:
  explicit Samples(double timer_ns) : timer_ns_(timer_ns) {
    ns_.reserve(kCalls);
  }
  void add(Clock::time_point a, Clock::time_point b) {
    ns_.push_back(ns_between(a, b) - timer_ns_);
  }
  void add_ns(double ns) { ns_.push_back(ns); }
  double mean() const {
    double sum = 0.0;
    for (const double x : ns_) sum += x;
    return ns_.empty() ? 0.0 : sum / static_cast<double>(ns_.size());
  }
  /// Nearest-rank percentile.
  double pct(double p) {
    std::sort(ns_.begin(), ns_.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(ns_.size())));
    return ns_[std::max<std::size_t>(rank, 1) - 1];
  }

 private:
  double timer_ns_;
  std::vector<double> ns_;
};

/// Cost of one timed empty region: the mean of the middle half of
/// kCalls readings (preempted outliers excluded).
double timer_cost_ns() {
  std::vector<double> ns(kCalls);
  for (double& x : ns) {
    const Clock::time_point a = Clock::now();
    const Clock::time_point b = Clock::now();
    x = ns_between(a, b);
  }
  std::sort(ns.begin(), ns.end());
  double sum = 0.0;
  for (std::size_t i = kCalls / 4; i < 3 * kCalls / 4; ++i) sum += ns[i];
  return sum / static_cast<double>(kCalls / 2);
}

}  // namespace

std::map<std::string, double> run_replay(const WorkloadSpec& spec,
                                         std::uint64_t seed,
                                         const Repetition& measured,
                                         double start_s,
                                         std::vector<Span>& spans,
                                         std::vector<std::string>& errors) {
  const sim::SwarmConfig config = make_config(spec);
  crypto::Bytes replay_seed = fleet_seed(seed);
  crypto::append(replay_seed, crypto::from_string("bench-replay"));
  crypto::HmacDrbg drbg(replay_seed);
  const crypto::Bytes key = drbg.generate(16);
  const crypto::Bytes app_seed = drbg.generate(16);
  const crypto::Bytes verifier_seed = drbg.generate(16);
  const crypto::Bytes link_seed = drbg.generate(16);

  const double timer_ns = timer_cost_ns();
  std::map<std::string, Samples> calls;
  const auto samples = [&](const char* name) -> Samples& {
    return calls.try_emplace(name, timer_ns).first->second;
  };
  const Clock::time_point t0 = Clock::now();
  Clock::time_point group_start = t0;
  const auto end_group = [&](const char* name) {
    const Clock::time_point now = Clock::now();
    spans.push_back(Span{name,
                         start_s + ns_between(t0, group_start) * 1e-9,
                         ns_between(group_start, now) * 1e-9, 2});
    group_start = now;
  };

  // --- The stack one device of the workload runs on. ---
  const attest::ProverTemplate tmpl =
      attest::ProverDevice::make_template(config.prover, app_seed);
  std::unique_ptr<attest::ProverDevice> prover =
      config.share_app_image
          ? std::make_unique<attest::ProverDevice>(config.prover, key, tmpl)
          : std::make_unique<attest::ProverDevice>(config.prover, key,
                                                   app_seed);
  attest::Verifier::Config vc;
  vc.scheme = config.prover.scheme;
  vc.mac_alg = config.prover.mac_alg;
  vc.authenticate_requests = config.prover.authenticate_requests;
  vc.bind_generation = config.prover.bind_generation;
  attest::ProverDevice* prover_ptr = prover.get();
  vc.clock = [prover_ptr] { return prover_ptr->ground_truth_ticks(); };
  attest::Verifier verifier(key, vc, verifier_seed);
  verifier.set_reference_memory(prover->reference_memory());
  attest::VerifierBatch batch;
  if (config.mac_batch) verifier.set_batch_engine(&batch);
  end_group("replay.stack");

  // --- One attestation round per iteration, plus a replay of the
  //     previous round's request (the reject path). ---
  attest::AttestRequest previous;
  for (std::size_t r = 0; r < kCalls + 1; ++r) {
    const Clock::time_point a = Clock::now();
    const attest::AttestRequest request = verifier.make_request();
    const Clock::time_point b = Clock::now();
    const crypto::Bytes wire = request.to_bytes();
    const auto parsed = attest::AttestRequest::from_bytes(wire);
    const Clock::time_point c = Clock::now();
    const attest::AttestOutcome out = prover->handle(*parsed);
    const Clock::time_point d = Clock::now();
    const crypto::Bytes response_wire = out.response.to_bytes();
    const auto response = attest::AttestResponse::from_bytes(response_wire);
    const Clock::time_point e = Clock::now();
    const bool valid = verifier.check_response(request, *response);
    const Clock::time_point f = Clock::now();
    if (out.status != attest::AttestStatus::kOk || !valid) {
      errors.push_back("replayed round was not accepted");
      break;
    }
    if (r > 0) {
      samples("attest.make_request_ns").add(a, b);
      samples("attest.codec_ns")
          .add_ns(ns_between(b, c) + ns_between(d, e) - 2 * timer_ns);
      samples("attest.handle_ns").add(c, d);
      samples("attest.check_response_ns").add(e, f);
      samples("attest.request_check_ns")
          .add_ns(ns_between(a, b) + ns_between(e, f) - 2 * timer_ns);
      const Clock::time_point g = Clock::now();
      const attest::AttestOutcome rejected = prover->handle(previous);
      samples("attest.handle_reject_ns").add(g, Clock::now());
      if (rejected.status != attest::AttestStatus::kNotFresh) {
        errors.push_back("replayed request was not rejected as stale");
        break;
      }
    }
    previous = request;
  }
  end_group("replay.rounds");

  // --- Device construction: per-device image, shared template, and a
  //     cold Swarm::prover(i) under the workload's config. ---
  for (std::size_t i = 0; i < kBoots; ++i) {
    const Clock::time_point a = Clock::now();
    auto device = std::make_unique<attest::ProverDevice>(config.prover, key,
                                                         app_seed);
    samples("attest.prover_boot_us").add(a, Clock::now());
  }
  end_group("replay.boot");
  for (std::size_t i = 0; i < kBoots; ++i) {
    const Clock::time_point a = Clock::now();
    auto device =
        std::make_unique<attest::ProverDevice>(config.prover, key, tmpl);
    samples("attest.prover_boot_template_us").add(a, Clock::now());
  }
  end_group("replay.boot_template");
  {
    sim::SwarmConfig cold = config;
    cold.device_count = kBoots;
    sim::Swarm swarm(cold, replay_seed);
    for (std::size_t i = 0; i < kBoots; ++i) {
      const Clock::time_point a = Clock::now();
      swarm.prover(i);
      samples("sim.materialize_us").add(a, Clock::now());
    }
  }
  end_group("replay.materialize");

  // --- Scheduler: one schedule_at + run_next against a pending set the
  //     size of the fleet (one lazy round event per device). ---
  {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < spec.devices; ++i) {
      queue.schedule_at(
          std::fmod(static_cast<double>(i) * 0.6180339887, spec.period_ms),
          [] {});
    }
    for (std::size_t i = 0; i < kCalls; ++i) {
      const Clock::time_point a = Clock::now();
      queue.schedule_at(queue.now_ms() + spec.period_ms, [] {});
      queue.run_next();
      samples("sim.queue_op_ns").add(a, Clock::now());
    }
  }
  end_group("replay.queue");

  // --- Leaf layers: bus, MACs, DRBG, link. ---
  std::vector<std::uint8_t> block(16 * 1024);
  const hw::Addr measured_base = prover->surface().measured_memory.begin;
  for (std::size_t i = 0; i < kCalls; ++i) {
    const Clock::time_point a = Clock::now();
    const hw::BusStatus status = prover->mcu().bus().read_block(
        hw::AccessContext{}, measured_base, block);
    samples("hw.bus_read_16KB_ns").add(a, Clock::now());
    if (status != hw::BusStatus::kOk) {
      errors.push_back("16 KB bus read failed");
      break;
    }
  }
  const std::unique_ptr<crypto::Mac> mac = crypto::make_hmac_sha1(key);
  const crypto::Bytes msg64(block.begin(), block.begin() + 64);
  for (std::size_t i = 0; i < kCalls; ++i) {
    const Clock::time_point a = Clock::now();
    const crypto::Bytes tag = mac->compute(msg64);
    samples("crypto.hmac_sha1_64B_ns").add(a, Clock::now());
  }
  for (std::size_t i = 0; i < kCalls; ++i) {
    const Clock::time_point a = Clock::now();
    const crypto::Bytes tag = mac->compute(block);
    samples("crypto.hmac_sha1_16KB_ns").add(a, Clock::now());
  }
  crypto::HmacDrbg draws(replay_seed);
  for (std::size_t i = 0; i < kCalls; ++i) {
    const Clock::time_point a = Clock::now();
    const crypto::Bytes bytes = draws.generate(16);
    samples("crypto.drbg_16B_ns").add(a, Clock::now());
  }
  net::FaultyLink link(config.link, link_seed);
  sim::TappedMessage message{previous.to_bytes(), 0.0, 0};
  for (std::size_t i = 0; i < kCalls; ++i) {
    message.id = i;
    message.sent_ms = static_cast<double>(i);
    const Clock::time_point a = Clock::now();
    const auto disposition = i % 2 == 0 ? link.on_to_prover(message)
                                        : link.on_to_verifier(message);
    samples("net.link_ns").add(a, Clock::now());
  }
  end_group("replay.leaf");

  std::map<std::string, double> out;
  for (auto& [name, s] : calls) {
    const double scale = name.ends_with("_us") ? 1e-3 : 1.0;  // from ns
    out[name + ".p50"] = s.pct(0.50) * scale;
    out[name + ".p99"] = s.pct(0.99) * scale;
  }

  // Coverage: each call's mean cost times how often the measured drain
  // made it. The mean, not p50: a batched make_request() is bimodal (one
  // call in eight fills the lookahead pipeline), and p50 x count would
  // drop the fills. Bus reads and MACs run inside handle() and
  // make_request() and are not added again.
  const auto& m = measured.values;
  const auto n = [&](const char* key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto mean = [&](const char* name) { return calls.at(name).mean(); };
  const double explained_ns =
      mean("attest.make_request_ns") * n("n.requests") +
      mean("attest.codec_ns") * n("n.requests") +
      mean("attest.handle_ns") * n("n.handle_ok") +
      mean("attest.handle_reject_ns") * n("n.handle_reject") +
      mean("attest.check_response_ns") * n("n.checks") +
      mean("sim.queue_op_ns") * n("sim.events_run") +
      mean("net.link_ns") * n("n.link_messages") +
      mean("sim.materialize_us") * n("n.drain_materialized");
  const double drain_cpu = n("sim.drain_cpu_s");
  out["trace.coverage"] = drain_cpu > 0 ? explained_ns * 1e-9 / drain_cpu : 0;
  out["trace.unexplained_s"] = drain_cpu - explained_ns * 1e-9;
  return out;
}

}  // namespace ratt_bench
