#ifndef EDGELET_CRYPTO_SHA256_H_
#define EDGELET_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.h"

namespace edgelet::crypto {

using Digest256 = std::array<uint8_t, 32>;

// Incremental SHA-256 (FIPS 180-4). Used for enclave measurements, the
// sealed log's hash chain and as the compression function under HMAC.
// Whole blocks go through the SHA-NI instructions when the CPU has them and
// through the portable scalar rounds otherwise; both give the same digest.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(const Bytes& b) { Update(b.data(), b.size()); }
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  // Finalizes and returns the digest; the object must be Reset() before
  // further use.
  Digest256 Finish();

  // One-shot convenience.
  static Digest256 Hash(const void* data, size_t len);
  static Digest256 Hash(const Bytes& b) { return Hash(b.data(), b.size()); }
  static Digest256 Hash(std::string_view s) { return Hash(s.data(), s.size()); }

 private:
  friend class HmacSha256Key;

  // Resumes from `midstate`, the chaining value after one whole block (an
  // HMAC pad).
  explicit Sha256(const uint32_t midstate[8]);

  void ProcessBlocks(const uint8_t* data, size_t blocks);

  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

// HMAC-SHA256 (RFC 2104).
Digest256 HmacSha256(const Bytes& key, const void* data, size_t len);
Digest256 HmacSha256(const Bytes& key, const Bytes& data);

// HMAC-SHA256 under one fixed key. The ipad and opad blocks are absorbed
// once, at construction, into two 32-byte midstates, so a MAC of an n-byte
// message costs ceil((n + 9) / 64) + 1 compressions instead of
// HmacSha256's two more (two for a 16-byte message instead of four). The
// MACs are byte-identical to HmacSha256 under the same key. A default-
// constructed schedule holds no key and must be assigned before use.
class HmacSha256Key {
 public:
  HmacSha256Key() = default;
  HmacSha256Key(const uint8_t* key, size_t len);
  explicit HmacSha256Key(const Bytes& key)
      : HmacSha256Key(key.data(), key.size()) {}

  Digest256 Mac(const void* data, size_t len) const;

 private:
  uint32_t inner_[8] = {};
  uint32_t outer_[8] = {};
};

// Constant-time comparison; true iff equal.
bool ConstantTimeEquals(const uint8_t* a, const uint8_t* b, size_t len);

namespace internal {

// The two compression functions behind Sha256, exposed so tests can run
// both on any host: each folds `blocks` consecutive 64-byte blocks into
// `state`. Sha256 picks the SHA-NI one when CpuHasShaNi() and the scalar
// one otherwise. Off GNU x86-64, CpuHasShaNi() is false and
// Sha256BlocksShaNi runs the scalar rounds.
void Sha256BlocksScalar(uint32_t state[8], const uint8_t* data,
                        size_t blocks);
void Sha256BlocksShaNi(uint32_t state[8], const uint8_t* data, size_t blocks);
bool CpuHasShaNi();

}  // namespace internal

}  // namespace edgelet::crypto

#endif  // EDGELET_CRYPTO_SHA256_H_
