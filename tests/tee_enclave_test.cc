#include "tee/enclave.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/serialize.h"

namespace edgelet::tee {
namespace {

class EnclaveTest : public ::testing::Test {
 protected:
  EnclaveTest() : authority_(42) {
    authority_.set_expected_measurement(
        crypto::Sha256::Hash("edgelet-query-v1"));
  }

  Enclave MakeEnclave(uint64_t id) {
    return Enclave(id, "edgelet-query-v1", &authority_);
  }

  TrustAuthority authority_;
};

TEST_F(EnclaveTest, AttestationVerifies) {
  Enclave e = MakeEnclave(1);
  EXPECT_TRUE(authority_.Verify(e.report()));
}

TEST_F(EnclaveTest, ForgedReportRejected) {
  Enclave e = MakeEnclave(1);
  AttestationReport forged = e.report();
  forged.enclave_id = 99;  // replay under a different identity
  EXPECT_FALSE(authority_.Verify(forged));
}

TEST_F(EnclaveTest, ForgedMeasurementRejected) {
  Enclave e = MakeEnclave(1);
  AttestationReport forged = e.report();
  forged.measurement[0] ^= 1;
  EXPECT_FALSE(authority_.Verify(forged));
}

TEST_F(EnclaveTest, ProvisionSucceedsForGenuineCode) {
  Enclave e = MakeEnclave(1);
  EXPECT_FALSE(e.provisioned());
  EXPECT_TRUE(e.Provision().ok());
  EXPECT_TRUE(e.provisioned());
}

TEST_F(EnclaveTest, TamperedCodeCannotProvision) {
  Enclave e = MakeEnclave(1);
  e.TamperCode("edgelet-query-v1-with-backdoor");
  // The report is genuine (hardware measures what runs)…
  EXPECT_TRUE(authority_.Verify(e.report()));
  // …but the measurement doesn't match the published code.
  Status s = e.Provision();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(EnclaveTest, SecureChannelRoundTrip) {
  Enclave a = MakeEnclave(1);
  Enclave b = MakeEnclave(2);
  ASSERT_TRUE(a.Provision().ok());
  ASSERT_TRUE(b.Provision().ok());

  Bytes aad = BytesFromString("from=1,to=2,type=7,seq=0");
  Bytes msg = BytesFromString("partial aggregate: sum=123, count=5");
  auto sealed = a.SealFor(2, /*seq=*/0, aad, msg);
  ASSERT_TRUE(sealed.ok());
  EXPECT_NE(*sealed, msg);  // actually encrypted

  auto opened = b.OpenFrom(1, /*seq=*/0, aad, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, msg);
}

TEST_F(EnclaveTest, ChannelIsDirectional) {
  Enclave a = MakeEnclave(1);
  Enclave b = MakeEnclave(2);
  ASSERT_TRUE(a.Provision().ok());
  ASSERT_TRUE(b.Provision().ok());

  Bytes aad;
  auto sealed = a.SealFor(2, 5, aad, BytesFromString("x"));
  ASSERT_TRUE(sealed.ok());
  // Opening with the wrong purported sender fails (nonce derives from the
  // true sender id).
  EXPECT_FALSE(b.OpenFrom(3, 5, aad, *sealed).ok());
  // Wrong sequence fails too.
  EXPECT_FALSE(b.OpenFrom(1, 6, aad, *sealed).ok());
}

TEST_F(EnclaveTest, ThirdEnclaveCannotDecryptPairTraffic) {
  Enclave a = MakeEnclave(1);
  Enclave b = MakeEnclave(2);
  Enclave c = MakeEnclave(3);
  ASSERT_TRUE(a.Provision().ok());
  ASSERT_TRUE(b.Provision().ok());
  ASSERT_TRUE(c.Provision().ok());

  Bytes aad;
  auto sealed = a.SealFor(2, 0, aad, BytesFromString("secret"));
  ASSERT_TRUE(sealed.ok());
  // c opening "from 1" uses key(1,3) != key(1,2).
  EXPECT_FALSE(c.OpenFrom(1, 0, aad, *sealed).ok());
}

TEST_F(EnclaveTest, SealForIntoMatchesSealForByteExactly) {
  Enclave a = MakeEnclave(1);
  Enclave b = MakeEnclave(2);
  ASSERT_TRUE(a.Provision().ok());
  ASSERT_TRUE(b.Provision().ok());

  Bytes aad = BytesFromString("hdr");
  Bytes msg = BytesFromString("partial aggregate: sum=123, count=5");
  auto sealed = a.SealFor(2, /*seq=*/3, aad, msg);
  ASSERT_TRUE(sealed.ok());

  // Scratch reused across both calls; contents must match the one-shot API.
  Bytes scratch = BytesFromString("stale content from a previous message");
  ASSERT_TRUE(
      a.SealForInto(2, /*seq=*/3, aad.data(), aad.size(), msg, &scratch)
          .ok());
  EXPECT_EQ(scratch, *sealed);

  Bytes opened = BytesFromString("also stale");
  ASSERT_TRUE(
      b.OpenFromInto(1, /*seq=*/3, aad.data(), aad.size(), scratch, &opened)
          .ok());
  EXPECT_EQ(opened, msg);
}

TEST_F(EnclaveTest, OpenFromIntoRejectsTampering) {
  Enclave a = MakeEnclave(1);
  Enclave b = MakeEnclave(2);
  ASSERT_TRUE(a.Provision().ok());
  ASSERT_TRUE(b.Provision().ok());

  Bytes aad;
  auto sealed = a.SealFor(2, 0, aad, BytesFromString("secret"));
  ASSERT_TRUE(sealed.ok());
  (*sealed)[0] ^= 1;
  Bytes out;
  EXPECT_FALSE(b.OpenFromInto(1, 0, nullptr, 0, *sealed, &out).ok());
}

TEST_F(EnclaveTest, PairwiseKeyCacheSurvivesReprovision) {
  Enclave a = MakeEnclave(1);
  Enclave b = MakeEnclave(2);
  ASSERT_TRUE(a.Provision().ok());
  ASSERT_TRUE(b.Provision().ok());

  // Exercise the cached-key path many times in both directions.
  Bytes aad;
  for (uint64_t seq = 0; seq < 8; ++seq) {
    auto sealed = a.SealFor(2, seq, aad, BytesFromString("ping"));
    ASSERT_TRUE(sealed.ok());
    auto opened = b.OpenFrom(1, seq, aad, *sealed);
    ASSERT_TRUE(opened.ok());
  }
  // Tampering invalidates the cache along with provisioning; a fresh
  // provision against genuine code restores working channels.
  a.TamperCode("evil");
  EXPECT_FALSE(a.SealFor(2, 99, aad, BytesFromString("x")).ok());
  a.TamperCode("edgelet-query-v1");
  ASSERT_TRUE(a.Provision().ok());
  auto sealed = a.SealFor(2, 100, aad, BytesFromString("pong"));
  ASSERT_TRUE(sealed.ok());
  EXPECT_TRUE(b.OpenFrom(1, 100, aad, *sealed).ok());
}

// The pairwise key derived from first principles: HMAC-SHA256 under the
// group key over the ordered id pair.
crypto::Key256 FreshPairwiseKey(const crypto::Key256& group_key, uint64_t a,
                                uint64_t b) {
  Writer w;
  w.PutU64(std::min(a, b));
  w.PutU64(std::max(a, b));
  crypto::Digest256 d = crypto::HmacSha256(
      Bytes(group_key.begin(), group_key.end()), w.Take());
  crypto::Key256 key;
  std::memcpy(key.data(), d.data(), key.size());
  return key;
}

TEST_F(EnclaveTest, PairwiseKeyTableMatchesFreshDerivationAtScale) {
  Enclave a = MakeEnclave(1);
  ASSERT_TRUE(a.Provision().ok());
  auto group_key = authority_.ProvisionGroupKey(a.report());
  ASSERT_TRUE(group_key.ok());

  // 10k peers in scrambled order (the table grows through many
  // rehashes), including id 0 — the table's empty-slot marker — and the
  // largest id.
  std::vector<uint64_t> peers = {0, UINT64_MAX, 1};
  Rng rng(17);
  while (peers.size() < 10000) peers.push_back(rng.NextU64() >> 8);
  const Bytes aad = BytesFromString("hdr");
  const Bytes msg = BytesFromString("contribution");
  for (int pass = 0; pass < 2; ++pass) {  // cold, then every key cached
    for (size_t i = 0; i < peers.size(); ++i) {
      const uint64_t peer = peers[i];
      const uint64_t seq = pass * peers.size() + i;
      auto sealed = a.SealFor(peer, seq, aad, msg);
      ASSERT_TRUE(sealed.ok());
      ASSERT_EQ(*sealed,
                crypto::AeadSeal(FreshPairwiseKey(*group_key, 1, peer),
                                 crypto::NonceFromSequence(1, seq), aad, msg))
          << "peer " << peer << " pass " << pass;
    }
  }
  EXPECT_EQ(a.cached_pairwise_keys(), Enclave::kPairwiseKeyCacheCapacity);
}

// The cache holds at most kPairwiseKeyCacheCapacity keys however many peers
// an enclave talks to, and cycling one peer more than it holds (every
// lookup evicts the key needed next) still seals under the right keys.
TEST_F(EnclaveTest, PairwiseKeyCacheIsBoundedAndEvictsCorrectly) {
  Enclave a = MakeEnclave(5);
  EXPECT_EQ(a.cached_pairwise_keys(), 0u);
  ASSERT_TRUE(a.Provision().ok());
  EXPECT_EQ(a.cached_pairwise_keys(), 0u);
  auto group_key = authority_.ProvisionGroupKey(a.report());
  ASSERT_TRUE(group_key.ok());
  const Bytes aad = BytesFromString("hdr");
  const Bytes msg = BytesFromString("contribution");
  uint64_t seq = 0;
  for (uint64_t peer = 100; peer < 10100; ++peer) {
    ASSERT_TRUE(a.SealFor(peer, seq++, aad, msg).ok());
    ASSERT_LE(a.cached_pairwise_keys(), Enclave::kPairwiseKeyCacheCapacity);
  }
  EXPECT_EQ(a.cached_pairwise_keys(), Enclave::kPairwiseKeyCacheCapacity);

  const uint64_t cycle = Enclave::kPairwiseKeyCacheCapacity + 1;
  for (int round = 0; round < 4; ++round) {
    for (uint64_t peer = 0; peer < cycle; ++peer) {
      auto sealed = a.SealFor(peer, seq, aad, msg);
      ASSERT_TRUE(sealed.ok());
      ASSERT_EQ(*sealed,
                crypto::AeadSeal(FreshPairwiseKey(*group_key, 5, peer),
                                 crypto::NonceFromSequence(5, seq), aad, msg))
          << "peer " << peer << " round " << round;
      ++seq;
    }
  }
  EXPECT_EQ(a.cached_pairwise_keys(), Enclave::kPairwiseKeyCacheCapacity);
}

TEST_F(EnclaveTest, PairwiseKeyIsSymmetricAcrossDirections) {
  Enclave a = MakeEnclave(3);
  Enclave b = MakeEnclave(900);
  ASSERT_TRUE(a.Provision().ok());
  ASSERT_TRUE(b.Provision().ok());
  const Bytes aad;
  // A->B under B's cached key for A, and B->A under A's cached key for B.
  for (uint64_t seq = 0; seq < 4; ++seq) {
    auto ab = a.SealFor(900, seq, aad, BytesFromString("to b"));
    ASSERT_TRUE(ab.ok());
    EXPECT_TRUE(b.OpenFrom(3, seq, aad, *ab).ok());
    auto ba = b.SealFor(3, seq, aad, BytesFromString("to a"));
    ASSERT_TRUE(ba.ok());
    EXPECT_TRUE(a.OpenFrom(900, seq, aad, *ba).ok());
  }
  EXPECT_EQ(a.cached_pairwise_keys(), 1u);
  EXPECT_EQ(b.cached_pairwise_keys(), 1u);
}

// Pins the channel bytes (and the attestation MACs they hang on) for a low
// and a high enclave id under the fixture's authority seed, in both
// directions: any change to the report MAC, the pairwise-key derivation or
// the AEAD shows up here.
TEST_F(EnclaveTest, PairwiseChannelBytesArePinned) {
  const uint64_t low_id = 7;
  const uint64_t high_id = 0xFEDCBA9876543210ULL;
  Enclave low = MakeEnclave(low_id);
  Enclave high = MakeEnclave(high_id);
  ASSERT_TRUE(low.Provision().ok());
  ASSERT_TRUE(high.Provision().ok());
  EXPECT_EQ(Fnv1a64(low.report().mac.data(), low.report().mac.size()),
            0x6BFAF8997B3D3EA6ULL);
  EXPECT_EQ(Fnv1a64(high.report().mac.data(), high.report().mac.size()),
            0x4F4E9725D6BAB0D4ULL);

  const Bytes aad = BytesFromString("from,to,type");
  const Bytes msg = BytesFromString("partial aggregate: sum=123, count=5");
  auto up = low.SealFor(high_id, 41, aad, msg);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up->size(), 51u);
  EXPECT_EQ(Fnv1a64(up->data(), up->size()), 0x19A39354B29A15D6ULL);
  auto up_opened = high.OpenFrom(low_id, 41, aad, *up);
  ASSERT_TRUE(up_opened.ok());
  EXPECT_EQ(*up_opened, msg);

  auto down = high.SealFor(low_id, 41, aad, msg);
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down->size(), 51u);
  EXPECT_EQ(Fnv1a64(down->data(), down->size()), 0x20103AB590CDF918ULL);
  auto down_opened = low.OpenFrom(high_id, 41, aad, *down);
  ASSERT_TRUE(down_opened.ok());
  EXPECT_EQ(*down_opened, msg);
}

TEST_F(EnclaveTest, ProvisionAndTamperEmptyTheKeyTable) {
  Enclave a = MakeEnclave(1);
  ASSERT_TRUE(a.Provision().ok());
  for (uint64_t peer = 2; peer < 50; ++peer) {
    ASSERT_TRUE(a.SealFor(peer, peer, {}, BytesFromString("x")).ok());
  }
  EXPECT_EQ(a.cached_pairwise_keys(), Enclave::kPairwiseKeyCacheCapacity);
  ASSERT_TRUE(a.Provision().ok());
  EXPECT_EQ(a.cached_pairwise_keys(), 0u);
  ASSERT_TRUE(a.SealFor(2, 100, {}, BytesFromString("x")).ok());
  EXPECT_EQ(a.cached_pairwise_keys(), 1u);
  a.TamperCode("evil");
  EXPECT_EQ(a.cached_pairwise_keys(), 0u);
}

TEST_F(EnclaveTest, UnprovisionedCannotUseChannels) {
  Enclave a = MakeEnclave(1);
  EXPECT_FALSE(a.SealFor(2, 0, {}, BytesFromString("x")).ok());
  EXPECT_FALSE(a.OpenFrom(2, 0, {}, Bytes(32, 0)).ok());
}

TEST_F(EnclaveTest, SealedStorageRoundTrip) {
  Enclave e = MakeEnclave(1);
  Bytes data = BytesFromString("medical record #1337");
  Bytes sealed = e.SealToStorage(data);
  EXPECT_NE(sealed, data);
  auto unsealed = e.UnsealFromStorage(sealed);
  ASSERT_TRUE(unsealed.ok());
  EXPECT_EQ(*unsealed, data);
}

TEST_F(EnclaveTest, SealedStorageBoundToEnclave) {
  Enclave a = MakeEnclave(1);
  Enclave b = MakeEnclave(2);
  Bytes sealed = a.SealToStorage(BytesFromString("private"));
  EXPECT_FALSE(b.UnsealFromStorage(sealed).ok());
}

TEST_F(EnclaveTest, SealedStorageDetectsTampering) {
  Enclave e = MakeEnclave(1);
  Bytes sealed = e.SealToStorage(BytesFromString("private"));
  sealed.back() ^= 1;
  EXPECT_FALSE(e.UnsealFromStorage(sealed).ok());
}

TEST_F(EnclaveTest, SealedStorageUsesFreshNonces) {
  Enclave e = MakeEnclave(1);
  Bytes d = BytesFromString("same plaintext");
  Bytes s1 = e.SealToStorage(d);
  Bytes s2 = e.SealToStorage(d);
  EXPECT_NE(s1, s2);  // sequence number advances
  EXPECT_EQ(*e.UnsealFromStorage(s1), d);
  EXPECT_EQ(*e.UnsealFromStorage(s2), d);
}

TEST_F(EnclaveTest, SealedGlassExposureAccounting) {
  Enclave e = MakeEnclave(1);
  EXPECT_FALSE(e.sealed_glass_compromised());
  e.set_sealed_glass_compromised(true);
  EXPECT_TRUE(e.sealed_glass_compromised());

  e.RecordClearTextTuples(100, 8);
  e.RecordClearTextTuples(50, 8);
  EXPECT_EQ(e.cleartext_tuples_observed(), 150u);
  EXPECT_EQ(e.cleartext_cells_observed(), 1200u);
}

TEST_F(EnclaveTest, DifferentAuthoritiesDoNotTrustEachOther) {
  TrustAuthority other(43);
  Enclave e = MakeEnclave(1);
  EXPECT_FALSE(other.Verify(e.report()));
}

TEST_F(EnclaveTest, ProvisionWithoutExpectedMeasurementAcceptsAnyGenuine) {
  TrustAuthority open_authority(7);
  Enclave e(1, "any-code", &open_authority);
  EXPECT_TRUE(e.Provision().ok());
}

}  // namespace
}  // namespace edgelet::tee
