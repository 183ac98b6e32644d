#ifndef EDGELET_CRYPTO_CHACHA20_H_
#define EDGELET_CRYPTO_CHACHA20_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace edgelet::crypto {

using Key256 = std::array<uint8_t, 32>;
using Nonce96 = std::array<uint8_t, 12>;

// ChaCha20 stream cipher (RFC 8439). Encryption and decryption are the same
// XOR operation. `counter` is the initial block counter (1 for AEAD payload,
// 0 for the Poly1305 one-time key block).
Bytes ChaCha20Xor(const Key256& key, const Nonce96& nonce, uint32_t counter,
                  const Bytes& input);

// In-place variant — the hot path behind every sealed message. Keystream is
// generated four blocks at a time into a stack scratch buffer (independent
// blocks in structure-of-arrays layout, which the compiler auto-vectorizes)
// and XORed over `data` word-at-a-time. No heap allocation. ChaCha20Xor is
// a thin copy-then-XorInPlace wrapper, so both produce identical bytes.
void ChaCha20XorInPlace(const Key256& key, const Nonce96& nonce,
                        uint32_t counter, uint8_t* data, size_t len);

// Four consecutive keystream blocks (counters counter .. counter+3) from
// one batched generation. The short-message AEAD path takes both its
// Poly1305 one-time key (block 0) and its whole payload keystream (blocks
// 1-3) from a single call at counter 0.
inline constexpr size_t kChaCha20Batch4Bytes = 4 * 64;
void ChaCha20Blocks4(const Key256& key, const Nonce96& nonce,
                     uint32_t counter, uint8_t out[kChaCha20Batch4Bytes]);

// Raw 64-byte keystream block; exposed for Poly1305 key derivation and
// for tests against the RFC 8439 vectors.
std::array<uint8_t, 64> ChaCha20Block(const Key256& key, const Nonce96& nonce,
                                      uint32_t counter);

}  // namespace edgelet::crypto

#endif  // EDGELET_CRYPTO_CHACHA20_H_
