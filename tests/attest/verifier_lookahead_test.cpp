// The batched verifier's lookahead window (Verifier::set_batch_engine)
// against the scalar verifier it must be indistinguishable from: two
// verifiers with one key, config and DRBG seed, one of them served by a
// VerifierBatch, driven through the same calls. Every request must match
// byte for byte and every verdict must agree, and the batched side's
// verifier.batch.* counters must read as verifier.hpp documents. Those
// counters do not depend on the host; VerifierBatch::tags_computed()
// does (crypto::Sha1xN::lanes_parallel()).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ratt/attest/verifier.hpp"
#include "ratt/attest/verifier_batch.hpp"
#include "ratt/crypto/mac.hpp"
#include "ratt/crypto/sha1xn.hpp"
#include "ratt/obs/metrics.hpp"

namespace ratt::attest {
namespace {

const crypto::Bytes kKey = crypto::from_hex("404142434445464748494a4b4c4d4e4f");

Verifier::Config config(FreshnessScheme scheme) {
  Verifier::Config vc;
  vc.scheme = scheme;
  return vc;
}

/// What an honest prover holding `memory` answers to `req`.
AttestResponse honest(const AttestRequest& req, const crypto::Bytes& memory) {
  crypto::Bytes message(16);
  crypto::store_le64(message.data(), req.challenge);
  crypto::store_le64(message.data() + 8, req.freshness);
  crypto::append(message, memory);
  AttestResponse resp;
  resp.freshness = req.freshness;
  resp.measurement = crypto::make_mac(req.mac_alg, kKey)->compute(message);
  return resp;
}

class VerifierLookahead : public ::testing::TestWithParam<FreshnessScheme> {
 protected:
  VerifierLookahead()
      : scalar_(kKey, config(GetParam()), crypto::from_string("lookahead")),
        batched_(kKey, config(GetParam()), crypto::from_string("lookahead")) {
    batch_.set_observer(obs::Observer{.registry = &registry_});
    batched_.set_batch_engine(&batch_);
    set_reference(ref_a_);
  }

  void set_reference(const crypto::Bytes& memory) {
    scalar_.set_reference_memory(memory);
    batched_.set_reference_memory(memory);
  }

  AttestRequest request() {
    const AttestRequest a = scalar_.make_request();
    const AttestRequest b = batched_.make_request();
    EXPECT_EQ(a.to_bytes(), b.to_bytes());
    EXPECT_EQ(scalar_.counter(), batched_.counter());
    return a;
  }

  IncAttestRequest incremental_request() {
    const IncAttestRequest a = scalar_.make_incremental_request();
    const IncAttestRequest b = batched_.make_incremental_request();
    EXPECT_EQ(a.to_bytes(), b.to_bytes());
    EXPECT_EQ(scalar_.counter(), batched_.counter());
    return a;
  }

  bool check(const AttestRequest& req, const AttestResponse& resp) {
    const bool a = scalar_.check_response(req, resp);
    const bool b = batched_.check_response(req, resp);
    EXPECT_EQ(a, b);
    return a;
  }

  double counter(const char* name) const {
    const obs::Counter* c = registry_.find_counter(name);
    return c == nullptr ? 0.0 : c->value();
  }
  double fills() const { return counter("verifier.batch.fills"); }
  double lanes() const { return counter("verifier.batch.lanes"); }
  double hits() const { return counter("verifier.batch.hits"); }
  double misses() const { return counter("verifier.batch.misses"); }

  const crypto::Bytes ref_a_ = crypto::Bytes(300, 0x5a);
  const crypto::Bytes ref_b_ = crypto::Bytes(300, 0xa5);
  obs::Registry registry_;
  VerifierBatch batch_;
  Verifier scalar_;
  Verifier batched_;
};

TEST_P(VerifierLookahead, InOrderChecks) {
  // 12 rounds, each checked before the next is issued: two fills of 8.
  for (int i = 0; i < 12; ++i) {
    const AttestRequest req = request();
    AttestResponse forged = honest(req, ref_a_);
    forged.measurement[3] ^= 0x40;
    EXPECT_FALSE(check(req, forged)) << i;
    // A check does not consume the round's slot: the honest answer that
    // follows the forged one hits it too.
    EXPECT_TRUE(check(req, honest(req, ref_a_))) << i;
  }
  EXPECT_EQ(fills(), 2.0);
  EXPECT_EQ(lanes(), 16.0);
  EXPECT_EQ(hits(), 24.0);
  EXPECT_EQ(misses(), 0.0);
}

TEST_P(VerifierLookahead, OutOfOrderChecks) {
  std::vector<AttestRequest> reqs;
  for (int i = 0; i < 6; ++i) reqs.push_back(request());
  for (const int i : {3, 0, 5, 1, 4, 2}) {
    EXPECT_TRUE(check(reqs[i], honest(reqs[i], ref_a_))) << i;
  }
  EXPECT_EQ(fills(), 1.0);
  EXPECT_EQ(lanes(), 8.0);
  EXPECT_EQ(hits(), 6.0);
  EXPECT_EQ(misses(), 0.0);
  // A response answering another round is rejected by both.
  const AttestRequest late = request();
  EXPECT_FALSE(check(late, honest(reqs[0], ref_a_)));
}

TEST_P(VerifierLookahead, NeverCheckedRounds) {
  // Eight issued rounds that are never answered need no clean-up: once
  // all eight are issued, the next fill draws eight lanes over them and
  // later rounds hit.
  std::vector<AttestRequest> unanswered;
  for (int i = 0; i < 8; ++i) unanswered.push_back(request());
  for (int i = 0; i < 4; ++i) {
    const AttestRequest req = request();
    EXPECT_TRUE(check(req, honest(req, ref_a_))) << i;
  }
  EXPECT_EQ(fills(), 2.0);
  EXPECT_EQ(lanes(), 16.0);
  EXPECT_EQ(hits(), 4.0);
  EXPECT_EQ(misses(), 0.0);
  // A late answer to an overwritten round is checked scalar: the same
  // verdict as the scalar verifier, counted as one miss.
  EXPECT_TRUE(check(unanswered[6], honest(unanswered[6], ref_a_)));
  EXPECT_EQ(hits(), 4.0);
  EXPECT_EQ(misses(), 1.0);
}

TEST_P(VerifierLookahead, TagsOnlyWhatIsReadWhereLanesAreSequential) {
  // Where lanes run in parallel the first check tags all 8 drawn rounds
  // in one wave; where they run one after another (SHA-NI) it tags only
  // the round it reads.
  const bool parallel = crypto::Sha1xN::lanes_parallel();
  const AttestRequest first = request();
  EXPECT_TRUE(check(first, honest(first, ref_a_)));
  EXPECT_EQ(fills(), 1.0);
  EXPECT_EQ(lanes(), 8.0);
  EXPECT_EQ(hits(), 1.0);
  EXPECT_EQ(batch_.tags_computed(), parallel ? 8u : 1u);
  // A re-check reads the tag kept in the window.
  EXPECT_TRUE(check(first, honest(first, ref_a_)));
  EXPECT_EQ(batch_.tags_computed(), parallel ? 8u : 1u);
  // Seven more rounds issued and never checked, then a second fill of
  // 8 of which one is issued and checked: the unread rounds of both
  // fills are never tagged on a sequential host.
  for (int i = 0; i < 7; ++i) (void)request();
  const AttestRequest second = request();
  EXPECT_TRUE(check(second, honest(second, ref_a_)));
  EXPECT_EQ(fills(), 2.0);
  EXPECT_EQ(lanes(), 16.0);
  EXPECT_EQ(hits(), 3.0);
  EXPECT_EQ(misses(), 0.0);
  EXPECT_EQ(batch_.tags_computed(), parallel ? 16u : 2u);
  // A reference change re-tags only what is read next.
  set_reference(ref_b_);
  EXPECT_TRUE(check(second, honest(second, ref_b_)));
  EXPECT_EQ(batch_.tags_computed(), parallel ? 24u : 3u);
}

TEST_P(VerifierLookahead, ReferenceSourceResolvesAtFirstCheck) {
  // A lazy reference source runs once, at the first check that reads
  // the reference — not at set time, not for request building.
  int calls = 0;
  const auto source = [&calls, this] {
    ++calls;
    return std::make_shared<const crypto::Bytes>(ref_b_);
  };
  scalar_.set_reference_source(source);
  batched_.set_reference_source(source);
  std::vector<AttestRequest> reqs;
  for (int i = 0; i < 3; ++i) reqs.push_back(request());
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(check(reqs[0], honest(reqs[0], ref_b_)));
  EXPECT_EQ(calls, 2);  // once per verifier
  EXPECT_FALSE(check(reqs[1], honest(reqs[1], ref_a_)));
  EXPECT_TRUE(check(reqs[2], honest(reqs[2], ref_b_)));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(hits(), 3.0);
  EXPECT_EQ(misses(), 0.0);
  // A source set after the tags were computed clears them. The next
  // check resolves it, once per verifier, and tags over it — rounds
  // issued before the set included — so every check hits.
  scalar_.set_reference_source(source);
  batched_.set_reference_source(source);
  const AttestRequest req = request();
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(check(req, honest(req, ref_b_)));
  EXPECT_EQ(calls, 4);
  EXPECT_TRUE(check(reqs[2], honest(reqs[2], ref_b_)));
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(hits(), 5.0);
  EXPECT_EQ(misses(), 0.0);
}

TEST_P(VerifierLookahead, ReferenceSwapBeforeFirstCheck) {
  // The expected tags are computed at the first check, over the
  // reference current then: a swap before it leaves every check a hit.
  std::vector<AttestRequest> reqs;
  for (int i = 0; i < 3; ++i) reqs.push_back(request());
  set_reference(ref_b_);
  EXPECT_FALSE(check(reqs[0], honest(reqs[0], ref_a_)));
  EXPECT_TRUE(check(reqs[1], honest(reqs[1], ref_b_)));
  EXPECT_TRUE(check(reqs[2], honest(reqs[2], ref_b_)));
  EXPECT_EQ(hits(), 3.0);
  EXPECT_EQ(misses(), 0.0);
}

TEST_P(VerifierLookahead, ReferenceSwapAfterFirstCheck) {
  std::vector<AttestRequest> reqs;
  for (int i = 0; i < 3; ++i) reqs.push_back(request());
  // The first check tags over ref_a_ (all eight drawn rounds where
  // lanes run in parallel, only reqs[0] otherwise) ...
  EXPECT_TRUE(check(reqs[0], honest(reqs[0], ref_a_)));
  set_reference(ref_b_);
  // ... and the swap clears those tags: later checks tag over ref_b_,
  // so every later check hits with ref_b_'s verdict, a re-check of
  // reqs[0] included.
  EXPECT_TRUE(check(reqs[1], honest(reqs[1], ref_b_)));
  EXPECT_FALSE(check(reqs[2], honest(reqs[2], ref_a_)));
  EXPECT_FALSE(check(reqs[0], honest(reqs[0], ref_a_)));
  EXPECT_TRUE(check(reqs[0], honest(reqs[0], ref_b_)));
  EXPECT_EQ(hits(), 5.0);
  EXPECT_EQ(misses(), 0.0);
  // The five rounds not yet issued are tagged over ref_b_ too.
  for (int i = 0; i < 5; ++i) {
    const AttestRequest req = request();
    EXPECT_TRUE(check(req, honest(req, ref_b_))) << i;
  }
  EXPECT_EQ(hits(), 10.0);
  // The next fill's rounds are tagged at their first check, over ref_b_.
  for (int i = 0; i < 3; ++i) {
    const AttestRequest req = request();
    EXPECT_TRUE(check(req, honest(req, ref_b_))) << i;
  }
  EXPECT_EQ(fills(), 2.0);
  EXPECT_EQ(hits(), 13.0);
  EXPECT_EQ(misses(), 0.0);
}

TEST_P(VerifierLookahead, IncrementalRequestsConsumePendingDraws) {
  // Incremental requests take the next drawn round (MAC'd scalar), so
  // plain and incremental rounds interleave in scalar draw order.
  std::vector<AttestRequest> plain;
  for (int i = 0; i < 10; ++i) {
    if (i % 3 == 1) {
      (void)incremental_request();
    } else {
      plain.push_back(request());
    }
  }
  // Draws 0-7 came from the first fill (three of them incremental),
  // draws 8 and 9 from a second fill of 8 that overwrote the first: its
  // two rounds hit, the first fill's five plain rounds are checked
  // scalar.
  for (std::size_t i = plain.size(); i-- > 0;) {
    EXPECT_TRUE(check(plain[i], honest(plain[i], ref_a_))) << i;
  }
  EXPECT_EQ(fills(), 2.0);
  EXPECT_EQ(lanes(), 16.0);
  EXPECT_EQ(hits(), 2.0);
  EXPECT_EQ(misses(), 5.0);
  // A draw taken by an incremental request is never tagged: a plain
  // check carrying it, while it is still in the window, goes scalar.
  const IncAttestRequest in_window = incremental_request();
  AttestRequest as_plain;
  as_plain.scheme = in_window.scheme;
  as_plain.mac_alg = in_window.mac_alg;
  as_plain.freshness = in_window.freshness;
  as_plain.challenge = in_window.challenge;
  EXPECT_TRUE(check(as_plain, honest(as_plain, ref_a_)));
  EXPECT_EQ(fills(), 2.0);
  EXPECT_EQ(hits(), 2.0);
  EXPECT_EQ(misses(), 6.0);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, VerifierLookahead,
    ::testing::Values(FreshnessScheme::kNone, FreshnessScheme::kNonce,
                      FreshnessScheme::kCounter),
    [](const ::testing::TestParamInfo<FreshnessScheme>& info) {
      return to_string(info.param);
    });

}  // namespace
}  // namespace ratt::attest
