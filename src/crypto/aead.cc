#include "crypto/aead.h"

#include <cstring>

#include "crypto/sha256.h"

namespace edgelet::crypto {

namespace {

// Payloads up to this size take the one-batch path: a single 4-block
// keystream generation at counter 0 yields the Poly1305 one-time key
// (block 0) and the payload keystream (blocks 1-3). Longer payloads — the
// snapshot slices — derive the key from a scalar block 0 and run the bulk
// XOR path from counter 1. Both produce the RFC 8439 bytes.
constexpr size_t kShortPayloadMax = kChaCha20Batch4Bytes - 64;

// dst[0..n) = src[0..n) ^ ks[0..n), eight bytes at a time.
inline void XorInto(uint8_t* dst, const uint8_t* src, const uint8_t* ks,
                    size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t d = 0, k = 0;
    std::memcpy(&d, src + i, 8);
    std::memcpy(&k, ks + i, 8);
    d ^= k;
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < n; ++i) dst[i] = src[i] ^ ks[i];
}

// Fills ks with keystream from counter 0: for a short payload all four
// blocks (block 0 and the payload's blocks 1-3), otherwise block 0 only.
void KeystreamFromBlock0(const Key256& key, const Nonce96& nonce,
                         bool short_payload,
                         uint8_t ks[kChaCha20Batch4Bytes]) {
  if (short_payload) {
    ChaCha20Blocks4(key, nonce, 0, ks);
  } else {
    std::array<uint8_t, 64> block0 = ChaCha20Block(key, nonce, 0);
    std::memcpy(ks, block0.data(), block0.size());
  }
}

// mac = Poly1305(otk, aad || pad16 || ct || pad16 || len(aad) || len(ct)),
// computed incrementally over the aad and ciphertext in place — the padded
// concatenation never exists as a buffer. The one-time key is the first 32
// bytes of keystream block 0.
Tag128 ComputeTag(const uint8_t* block0, const uint8_t* aad, size_t aad_len,
                  const uint8_t* ciphertext, size_t ct_len) {
  std::array<uint8_t, 32> otk{};
  std::memcpy(otk.data(), block0, otk.size());
  static constexpr uint8_t kPad[16] = {0};
  Poly1305 mac(otk);
  mac.Update(aad, aad_len);
  if (aad_len % 16 != 0) mac.Update(kPad, 16 - aad_len % 16);
  mac.Update(ciphertext, ct_len);
  if (ct_len % 16 != 0) mac.Update(kPad, 16 - ct_len % 16);
  uint8_t lens[16];
  uint64_t vals[2] = {aad_len, ct_len};
  for (int v = 0; v < 2; ++v) {
    for (int i = 0; i < 8; ++i) {
      lens[8 * v + i] = static_cast<uint8_t>(vals[v] >> (8 * i));
    }
  }
  mac.Update(lens, 16);
  return mac.Finalize();
}

}  // namespace

void AeadSealInto(const Key256& key, const Nonce96& nonce, const uint8_t* aad,
                  size_t aad_len, const uint8_t* plaintext,
                  size_t plaintext_len, Bytes* out) {
  out->resize(plaintext_len + 16);
  uint8_t* ct = out->data();
  const bool short_payload = plaintext_len <= kShortPayloadMax;
  alignas(64) uint8_t ks[kChaCha20Batch4Bytes];
  KeystreamFromBlock0(key, nonce, short_payload, ks);
  if (short_payload) {
    XorInto(ct, plaintext, ks + 64, plaintext_len);
  } else {
    std::memcpy(ct, plaintext, plaintext_len);
    ChaCha20XorInPlace(key, nonce, 1, ct, plaintext_len);
  }
  const Tag128 tag = ComputeTag(ks, aad, aad_len, ct, plaintext_len);
  std::memcpy(ct + plaintext_len, tag.data(), tag.size());
}

Status AeadOpenInto(const Key256& key, const Nonce96& nonce,
                    const uint8_t* aad, size_t aad_len, const uint8_t* sealed,
                    size_t sealed_len, Bytes* out) {
  if (sealed_len < 16) {
    return Status::Corruption("AEAD message shorter than tag");
  }
  // The tag runs over the ciphertext region of `sealed` directly; no
  // intermediate ciphertext copy is made.
  const size_t ct_len = sealed_len - 16;
  const bool short_payload = ct_len <= kShortPayloadMax;
  alignas(64) uint8_t ks[kChaCha20Batch4Bytes];
  KeystreamFromBlock0(key, nonce, short_payload, ks);
  const Tag128 expected = ComputeTag(ks, aad, aad_len, sealed, ct_len);
  if (!ConstantTimeEquals(expected.data(), sealed + ct_len, 16)) {
    return Status::Corruption("AEAD tag mismatch");
  }
  out->resize(ct_len);
  if (short_payload) {
    XorInto(out->data(), sealed, ks + 64, ct_len);
  } else {
    std::memcpy(out->data(), sealed, ct_len);
    ChaCha20XorInPlace(key, nonce, 1, out->data(), ct_len);
  }
  return Status::OK();
}

Bytes AeadSeal(const Key256& key, const Nonce96& nonce, const Bytes& aad,
               const Bytes& plaintext) {
  Bytes out;
  AeadSealInto(key, nonce, aad.data(), aad.size(), plaintext.data(),
               plaintext.size(), &out);
  return out;
}

Result<Bytes> AeadOpen(const Key256& key, const Nonce96& nonce,
                       const Bytes& aad, const Bytes& sealed) {
  Bytes out;
  Status s = AeadOpenInto(key, nonce, aad.data(), aad.size(), sealed.data(),
                          sealed.size(), &out);
  if (!s.ok()) return s;
  return out;
}

Nonce96 NonceFromSequence(uint64_t channel_id, uint64_t seq) {
  uint32_t chan = static_cast<uint32_t>(channel_id) ^
                  static_cast<uint32_t>(channel_id >> 32);
  Nonce96 nonce;
  nonce[0] = static_cast<uint8_t>(chan);
  nonce[1] = static_cast<uint8_t>(chan >> 8);
  nonce[2] = static_cast<uint8_t>(chan >> 16);
  nonce[3] = static_cast<uint8_t>(chan >> 24);
  for (int i = 0; i < 8; ++i) {
    nonce[4 + i] = static_cast<uint8_t>(seq >> (8 * i));
  }
  return nonce;
}

}  // namespace edgelet::crypto
