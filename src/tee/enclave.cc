#include "tee/enclave.h"

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "common/serialize.h"

namespace edgelet::tee {

namespace {

void StoreLe64(uint8_t* out, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

// HMAC of the report body (enclave id, little-endian, then measurement)
// under the authority's root key.
crypto::Digest256 ReportMac(const crypto::HmacSha256Key& root,
                            uint64_t enclave_id, const Measurement& m) {
  uint8_t body[8 + sizeof(Measurement)];
  StoreLe64(body, enclave_id);
  std::memcpy(body + 8, m.data(), m.size());
  return root.Mac(body, sizeof(body));
}

crypto::Key256 KeyFromBytes(const Bytes& b) {
  crypto::Key256 key{};
  crypto::Digest256 d = crypto::Sha256::Hash(b);
  std::memcpy(key.data(), d.data(), key.size());
  return key;
}

}  // namespace

TrustAuthority::TrustAuthority(uint64_t seed) {
  Rng rng(seed);
  root_key_.resize(32);
  for (auto& b : root_key_) b = static_cast<uint8_t>(rng.NextU64());
  root_mac_ = crypto::HmacSha256Key(root_key_);
  Bytes gk(32);
  for (auto& b : gk) b = static_cast<uint8_t>(rng.NextU64());
  std::memcpy(group_key_.data(), gk.data(), group_key_.size());
}

AttestationReport TrustAuthority::Attest(uint64_t enclave_id,
                                         const Measurement& measurement) const {
  AttestationReport report;
  report.enclave_id = enclave_id;
  report.measurement = measurement;
  report.mac = ReportMac(root_mac_, enclave_id, measurement);
  return report;
}

bool TrustAuthority::Verify(const AttestationReport& report) const {
  crypto::Digest256 expected =
      ReportMac(root_mac_, report.enclave_id, report.measurement);
  return crypto::ConstantTimeEquals(expected.data(), report.mac.data(),
                                    expected.size());
}

Result<crypto::Key256> TrustAuthority::ProvisionGroupKey(
    const AttestationReport& report) const {
  if (!Verify(report)) {
    return Status::FailedPrecondition("attestation report MAC invalid");
  }
  if (has_expected_ &&
      !crypto::ConstantTimeEquals(report.measurement.data(),
                                  expected_measurement_.data(),
                                  expected_measurement_.size())) {
    return Status::FailedPrecondition(
        "enclave measurement does not match expected code identity");
  }
  return group_key_;
}

Enclave::Enclave(uint64_t id, std::string code_identity,
                 const TrustAuthority* authority)
    : id_(id),
      code_identity_(std::move(code_identity)),
      authority_(authority) {
  measurement_ = crypto::Sha256::Hash(code_identity_);
  report_ = authority_->Attest(id_, measurement_);
  // Sealing key: unique per enclave instance, derived from the hardware
  // root and the enclave identity (mirrors SGX EGETKEY semantics).
  Writer w;
  w.PutU64(id_);
  w.PutRaw(measurement_.data(), measurement_.size());
  w.PutBytes(authority_->root_key());
  sealing_key_ = KeyFromBytes(w.Take());
}

void Enclave::TamperCode(const std::string& new_identity) {
  code_identity_ = new_identity;
  measurement_ = crypto::Sha256::Hash(code_identity_);
  // Genuine hardware measures whatever code is loaded; the report is valid
  // but carries the tampered measurement.
  report_ = authority_->Attest(id_, measurement_);
  provisioned_ = false;
  pairwise_keys_.reset();
}

Status Enclave::Provision() {
  auto key = authority_->ProvisionGroupKey(report_);
  if (!key.ok()) return key.status();
  channel_mac_ = crypto::HmacSha256Key(key->data(), key->size());
  provisioned_ = true;
  pairwise_keys_.reset();
  return Status::OK();
}

const crypto::Key256& Enclave::PairwiseKey(uint64_t peer_id) const {
  if (!pairwise_keys_) pairwise_keys_ = std::make_unique<PairwiseKeyCache>();
  PairwiseKeyCache& cache = *pairwise_keys_;
  const uint64_t now = ++cache.clock;
  size_t slot = 0;  // the least recently used slot, if all are filled
  for (size_t i = 0; i < cache.size; ++i) {
    if (cache.peer[i] == peer_id) {
      cache.last_use[i] = now;
      return cache.key[i];
    }
    if (cache.last_use[i] < cache.last_use[slot]) slot = i;
  }
  if (cache.size < kPairwiseKeyCacheCapacity) slot = cache.size++;
  // Message: the lower id then the higher, each little-endian.
  uint8_t msg[16];
  StoreLe64(msg, std::min(id_, peer_id));
  StoreLe64(msg + 8, std::max(id_, peer_id));
  crypto::Digest256 d = channel_mac_.Mac(msg, sizeof(msg));
  crypto::Key256& key = cache.key[slot];
  std::memcpy(key.data(), d.data(), key.size());
  cache.peer[slot] = peer_id;
  cache.last_use[slot] = now;
  return key;
}

Status Enclave::SealForInto(uint64_t peer_id, uint64_t seq,
                            const uint8_t* aad, size_t aad_len,
                            const Bytes& plaintext, Bytes* out) {
  if (!provisioned_) {
    return Status::FailedPrecondition("enclave not provisioned");
  }
  crypto::Nonce96 nonce = crypto::NonceFromSequence(id_, seq);
  crypto::AeadSealInto(PairwiseKey(peer_id), nonce, aad, aad_len,
                       plaintext.data(), plaintext.size(), out);
  return Status::OK();
}

Status Enclave::OpenFromInto(uint64_t peer_id, uint64_t seq,
                             const uint8_t* aad, size_t aad_len,
                             const Bytes& sealed, Bytes* out) {
  if (!provisioned_) {
    return Status::FailedPrecondition("enclave not provisioned");
  }
  crypto::Nonce96 nonce = crypto::NonceFromSequence(peer_id, seq);
  return crypto::AeadOpenInto(PairwiseKey(peer_id), nonce, aad, aad_len,
                              sealed.data(), sealed.size(), out);
}

Result<Bytes> Enclave::SealFor(uint64_t peer_id, uint64_t seq,
                               const Bytes& aad, const Bytes& plaintext) {
  Bytes out;
  Status s = SealForInto(peer_id, seq, aad.data(), aad.size(), plaintext,
                         &out);
  if (!s.ok()) return s;
  return out;
}

Result<Bytes> Enclave::OpenFrom(uint64_t peer_id, uint64_t seq,
                                const Bytes& aad, const Bytes& sealed) {
  Bytes out;
  Status s = OpenFromInto(peer_id, seq, aad.data(), aad.size(), sealed, &out);
  if (!s.ok()) return s;
  return out;
}

Bytes Enclave::SealToStorage(const Bytes& plaintext) {
  crypto::Nonce96 nonce = crypto::NonceFromSequence(~id_, storage_seq_);
  Bytes aad;
  Bytes sealed = crypto::AeadSeal(sealing_key_, nonce, aad, plaintext);
  // Prepend the sequence so UnsealFromStorage can rebuild the nonce.
  Writer w;
  w.PutU64(storage_seq_);
  w.PutBytes(sealed);
  ++storage_seq_;
  return w.Take();
}

Result<Bytes> Enclave::UnsealFromStorage(const Bytes& blob) {
  Reader r(blob);
  auto seq = r.GetU64();
  if (!seq.ok()) return seq.status();
  auto sealed = r.GetBytes();
  if (!sealed.ok()) return sealed.status();
  crypto::Nonce96 nonce = crypto::NonceFromSequence(~id_, *seq);
  Bytes aad;
  return crypto::AeadOpen(sealing_key_, nonce, aad, *sealed);
}

void Enclave::RecordClearTextTuples(uint64_t tuples, uint64_t attributes) {
  cleartext_tuples_ += tuples;
  cleartext_cells_ += tuples * attributes;
}

}  // namespace edgelet::tee
