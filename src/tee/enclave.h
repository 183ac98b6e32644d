#ifndef EDGELET_TEE_ENCLAVE_H_
#define EDGELET_TEE_ENCLAVE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aead.h"
#include "crypto/sha256.h"

namespace edgelet::tee {

// Software model of a Trusted Execution Environment. The Edgelet protocols
// only rely on three TEE properties, all of which this model exposes:
//   1. Code identity: a measurement (hash of the code) that remote parties
//      can verify through manufacturer-rooted attestation.
//   2. Confidential channels: attested enclaves share keys and exchange
//      AEAD-sealed messages; the infrastructure between them sees only
//      ciphertext.
//   3. Sealed storage: data encrypted under a key only this enclave holds.
// The model additionally supports the paper's "sealed-glass" threat mode
// (Tramèr et al.): integrity holds but confidentiality is lost, so the
// enclave keeps exposure counters that the privacy module audits.

using Measurement = crypto::Digest256;

// Manufacturer-signed (HMAC in this symmetric model) statement binding an
// enclave id to its code measurement.
struct AttestationReport {
  uint64_t enclave_id = 0;
  Measurement measurement{};
  crypto::Digest256 mac{};
};

// Plays the role of the TEE manufacturer + key-distribution service: it
// attests enclaves and provisions the query-group key to enclaves whose
// measurement matches the expected code.
class TrustAuthority {
 public:
  explicit TrustAuthority(uint64_t seed);

  // Manufacturer root is installed in genuine hardware at fabrication; the
  // model hands it to enclaves it creates (see Enclave constructor).
  const Bytes& root_key() const { return root_key_; }

  AttestationReport Attest(uint64_t enclave_id,
                           const Measurement& measurement) const;
  bool Verify(const AttestationReport& report) const;

  // Releases the group key only to enclaves that attest with the expected
  // measurement (the code the querier published).
  void set_expected_measurement(const Measurement& m) {
    expected_measurement_ = m;
    has_expected_ = true;
  }
  Result<crypto::Key256> ProvisionGroupKey(
      const AttestationReport& report) const;

 private:
  Bytes root_key_;
  crypto::HmacSha256Key root_mac_;  // root_key_'s HMAC key schedule
  crypto::Key256 group_key_;
  Measurement expected_measurement_{};
  bool has_expected_ = false;
};

class Enclave {
 public:
  // `code_identity` stands in for the binary; its SHA-256 is the
  // measurement.
  Enclave(uint64_t id, std::string code_identity,
          const TrustAuthority* authority);

  uint64_t id() const { return id_; }
  const Measurement& measurement() const { return measurement_; }
  const AttestationReport& report() const { return report_; }

  // Simulates loading a modified binary: measurement changes, attestation
  // of the new identity will not match the expected measurement.
  void TamperCode(const std::string& new_identity);

  // Obtains the query-group key after remote attestation; fails if this
  // enclave's code was tampered with.
  Status Provision();

  bool provisioned() const { return provisioned_; }

  // --- Confidential channels -------------------------------------------
  // Pairwise keys derive from the group key and the unordered id pair; the
  // sender id feeds the nonce so both directions of a channel never reuse a
  // (key, nonce) pair. `seq` must be unique per (sender, receiver) message.
  Result<Bytes> SealFor(uint64_t peer_id, uint64_t seq, const Bytes& aad,
                        const Bytes& plaintext);
  Result<Bytes> OpenFrom(uint64_t peer_id, uint64_t seq, const Bytes& aad,
                         const Bytes& sealed);

  // Zero-copy variants — the hot message path. Seal/open into a caller-
  // provided scratch buffer (resized to fit), taking the aad as a raw span
  // so callers can keep it on the stack. Reusing one scratch across calls
  // makes the steady state allocation-free; outputs are byte-identical to
  // SealFor / OpenFrom, which wrap these.
  Status SealForInto(uint64_t peer_id, uint64_t seq, const uint8_t* aad,
                     size_t aad_len, const Bytes& plaintext, Bytes* out);
  Status OpenFromInto(uint64_t peer_id, uint64_t seq, const uint8_t* aad,
                      size_t aad_len, const Bytes& sealed, Bytes* out);

  // --- Sealed storage ---------------------------------------------------
  Bytes SealToStorage(const Bytes& plaintext);
  Result<Bytes> UnsealFromStorage(const Bytes& sealed);

  // --- Sealed-glass compromise model -------------------------------------
  // When compromised, integrity is preserved (the protocol still runs) but
  // everything processed in cleartext is considered observable.
  void set_sealed_glass_compromised(bool v) { sealed_glass_ = v; }
  bool sealed_glass_compromised() const { return sealed_glass_; }

  // Called by operators when raw (pre-aggregation) tuples are decrypted in
  // this enclave; the privacy module audits these counters.
  void RecordClearTextTuples(uint64_t tuples, uint64_t attributes);
  uint64_t cleartext_tuples_observed() const { return cleartext_tuples_; }
  uint64_t cleartext_cells_observed() const { return cleartext_cells_; }

  // Peers whose pairwise key is currently cached (tests and telemetry);
  // never more than kPairwiseKeyCacheCapacity.
  size_t cached_pairwise_keys() const {
    return pairwise_keys_ ? pairwise_keys_->size : 0;
  }

  // Pairwise keys an enclave holds at once. A device that talks to at most
  // this many peers (a cohort member and its n + m builders) derives each
  // key once; one that talks to thousands (a builder) derives on most
  // messages, at the price of one 16-byte HMAC.
  static constexpr size_t kPairwiseKeyCacheCapacity = 8;

 private:
  // The most recently used pairwise keys, fully associative: a lookup
  // scans the `size` filled slots; a miss fills a free slot or replaces
  // the least recently used one.
  struct PairwiseKeyCache {
    uint64_t peer[kPairwiseKeyCacheCapacity];
    uint64_t last_use[kPairwiseKeyCacheCapacity];
    crypto::Key256 key[kPairwiseKeyCacheCapacity];
    uint64_t clock = 0;
    size_t size = 0;
  };

  // A pairwise key is HMAC-SHA256(group key, lower id || higher id), two
  // SHA-256 compressions under the group key's schedule (channel_mac_).
  // The derived key for a peer is immutable for the lifetime of a group
  // key, so the recent ones are cached; the cache is allocated on first
  // channel use, so an enclave that never opens a channel holds none, and
  // freed whenever the group key can change (Provision, TamperCode).
  const crypto::Key256& PairwiseKey(uint64_t peer_id) const;

  uint64_t id_;
  std::string code_identity_;
  Measurement measurement_;
  const TrustAuthority* authority_;
  AttestationReport report_;
  crypto::Key256 sealing_key_{};
  crypto::HmacSha256Key channel_mac_;  // the group key's schedule
  bool provisioned_ = false;
  bool sealed_glass_ = false;
  uint64_t storage_seq_ = 0;
  uint64_t cleartext_tuples_ = 0;
  uint64_t cleartext_cells_ = 0;
  mutable std::unique_ptr<PairwiseKeyCache> pairwise_keys_;
};

}  // namespace edgelet::tee

#endif  // EDGELET_TEE_ENCLAVE_H_
