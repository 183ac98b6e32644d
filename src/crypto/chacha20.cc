#include "crypto/chacha20.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

namespace edgelet::crypto {

namespace {

constexpr size_t kBlockBytes = 64;

inline uint32_t Rotl32(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d ^= a;
  d = Rotl32(d, 16);
  c += d;
  b ^= c;
  b = Rotl32(b, 12);
  a += b;
  d ^= a;
  d = Rotl32(d, 8);
  c += d;
  b ^= c;
  b = Rotl32(b, 7);
}

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

inline void StoreLe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline void InitState(uint32_t state[16], const Key256& key,
                      const Nonce96& nonce, uint32_t counter) {
  // "expand 32-byte k"
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = LoadLe32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = LoadLe32(nonce.data() + 4 * i);
}

// One block of keystream for the state's current counter (tail path and
// the exported ChaCha20Block).
inline void BlockInto(const uint32_t state[16], uint8_t out[kBlockBytes]) {
  uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) StoreLe32(out + 4 * i, x[i] + state[i]);
}

// data[0..n) ^= ks[0..n), eight bytes at a time (memcpy keeps it legal for
// any alignment; the compiler lowers the loop to wide vector XORs).
inline void XorBytes(uint8_t* data, const uint8_t* ks, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t d, k;
    std::memcpy(&d, data + i, 8);
    std::memcpy(&k, ks + i, 8);
    d ^= k;
    std::memcpy(data + i, &d, 8);
  }
  for (; i < n; ++i) data[i] ^= ks[i];
}

#if defined(__GNUC__) || defined(__clang__)
#define EDGELET_CHACHA20_SIMD 1

// W independent block states in lane-per-block layout: x[word] holds the
// same state word of W consecutive counter values, so every quarter-round
// step is one vector add/xor/rotate. EDGELET_CHACHA_LANES blocks of
// keystream (counters state[12]..state[12]+W-1) land in `out`.
#define EDGELET_CHACHA_BLOCKS_BODY(Vec, W)                               \
  Vec x[16];                                                             \
  for (int i = 0; i < 16; ++i) {                                         \
    for (int j = 0; j < (W); ++j) x[i][j] = state[i];                    \
  }                                                                      \
  for (int j = 0; j < (W); ++j) {                                        \
    x[12][j] = state[12] + static_cast<uint32_t>(j);                     \
  }                                                                      \
  for (int round = 0; round < 10; ++round) {                             \
    EDGELET_CHACHA_QR(0, 4, 8, 12);                                      \
    EDGELET_CHACHA_QR(1, 5, 9, 13);                                      \
    EDGELET_CHACHA_QR(2, 6, 10, 14);                                     \
    EDGELET_CHACHA_QR(3, 7, 11, 15);                                     \
    EDGELET_CHACHA_QR(0, 5, 10, 15);                                     \
    EDGELET_CHACHA_QR(1, 6, 11, 12);                                     \
    EDGELET_CHACHA_QR(2, 7, 8, 13);                                      \
    EDGELET_CHACHA_QR(3, 4, 9, 14);                                      \
  }                                                                      \
  for (int j = 0; j < (W); ++j) {                                        \
    uint8_t* block = out + j * kBlockBytes;                              \
    for (int i = 0; i < 16; ++i) {                                       \
      uint32_t add =                                                     \
          i == 12 ? state[12] + static_cast<uint32_t>(j) : state[i];     \
      StoreLe32(block + 4 * i, x[i][j] + add);                           \
    }                                                                    \
  }

#define EDGELET_CHACHA_QR(a, b, c, d)                     \
  do {                                                    \
    x[a] += x[b];                                         \
    x[d] ^= x[a];                                         \
    x[d] = (x[d] << 16) | (x[d] >> 16);                   \
    x[c] += x[d];                                         \
    x[b] ^= x[c];                                         \
    x[b] = (x[b] << 12) | (x[b] >> 20);                   \
    x[a] += x[b];                                         \
    x[d] ^= x[a];                                         \
    x[d] = (x[d] << 8) | (x[d] >> 24);                    \
    x[c] += x[d];                                         \
    x[b] ^= x[c];                                         \
    x[b] = (x[b] << 7) | (x[b] >> 25);                    \
  } while (0)

using Vec4 = uint32_t __attribute__((vector_size(16)));
constexpr size_t kBatch4Bytes = 4 * kBlockBytes;

void Blocks4(const uint32_t state[16], uint8_t out[kBatch4Bytes]) {
  EDGELET_CHACHA_BLOCKS_BODY(Vec4, 4)
}

#if defined(__x86_64__)
using Vec8 = uint32_t __attribute__((vector_size(32)));
constexpr size_t kBatch8Bytes = 8 * kBlockBytes;

// In-register 8x8 transpose of 32-bit lanes: on entry r[i] holds word w+i of
// blocks 0..7; on exit r[j] holds words w..w+7 of block j.
__attribute__((target("avx2"))) inline void Transpose8x8(__m256i r[8]) {
  __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

// Eight lanes wide, and the keystream is XORed straight into `data` via two
// register transposes — no scratch buffer and no second pass over the bytes.
// Only dispatched to when the CPU has AVX2. (x86 is little-endian, so vector
// stores of the 32-bit words are already in RFC byte order.)
__attribute__((target("avx2"))) void XorBlocks8(const uint32_t state[16],
                                                uint8_t* data) {
  Vec8 x[16];
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 8; ++j) x[i][j] = state[i];
  }
  for (int j = 0; j < 8; ++j) {
    x[12][j] = state[12] + static_cast<uint32_t>(j);
  }
  const Vec8 counters = x[12];
  for (int round = 0; round < 10; ++round) {
    EDGELET_CHACHA_QR(0, 4, 8, 12);
    EDGELET_CHACHA_QR(1, 5, 9, 13);
    EDGELET_CHACHA_QR(2, 6, 10, 14);
    EDGELET_CHACHA_QR(3, 7, 11, 15);
    EDGELET_CHACHA_QR(0, 5, 10, 15);
    EDGELET_CHACHA_QR(1, 6, 11, 12);
    EDGELET_CHACHA_QR(2, 7, 8, 13);
    EDGELET_CHACHA_QR(3, 4, 9, 14);
  }
  x[12] += counters;
  for (int i = 0; i < 16; ++i) {
    if (i != 12) x[i] += state[i];
  }
  __m256i lo[8], hi[8];
  for (int i = 0; i < 8; ++i) {
    lo[i] = reinterpret_cast<__m256i&>(x[i]);
    hi[i] = reinterpret_cast<__m256i&>(x[8 + i]);
  }
  Transpose8x8(lo);
  Transpose8x8(hi);
  for (int j = 0; j < 8; ++j) {
    uint8_t* block = data + j * kBlockBytes;
    __m256i d0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
    __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(block),
                        _mm256_xor_si256(d0, lo[j]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + 32),
                        _mm256_xor_si256(d1, hi[j]));
  }
}

bool HasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}
#endif  // __x86_64__

#else   // !(__GNUC__ || __clang__)

// Portable fallback: four blocks generated one at a time.
constexpr size_t kBatch4Bytes = 4 * kBlockBytes;

void Blocks4(const uint32_t state[16], uint8_t out[kBatch4Bytes]) {
  uint32_t s[16];
  std::memcpy(s, state, sizeof(s));
  for (int j = 0; j < 4; ++j) {
    BlockInto(s, out + j * kBlockBytes);
    ++s[12];
  }
}

#endif  // __GNUC__ || __clang__

}  // namespace

std::array<uint8_t, 64> ChaCha20Block(const Key256& key, const Nonce96& nonce,
                                      uint32_t counter) {
  uint32_t state[16];
  InitState(state, key, nonce, counter);
  std::array<uint8_t, 64> out;
  BlockInto(state, out.data());
  return out;
}

void ChaCha20Blocks4(const Key256& key, const Nonce96& nonce,
                     uint32_t counter, uint8_t out[kChaCha20Batch4Bytes]) {
  uint32_t state[16];
  InitState(state, key, nonce, counter);
  Blocks4(state, out);
}

void ChaCha20XorInPlace(const Key256& key, const Nonce96& nonce,
                        uint32_t counter, uint8_t* data, size_t len) {
  uint32_t state[16];
  InitState(state, key, nonce, counter);

#if defined(EDGELET_CHACHA20_SIMD) && defined(__x86_64__)
  if (len >= kBatch8Bytes && HasAvx2()) {
    do {
      XorBlocks8(state, data);
      state[12] += 8;
      data += kBatch8Bytes;
      len -= kBatch8Bytes;
    } while (len >= kBatch8Bytes);
  }
#endif

  alignas(64) uint8_t ks[kBatch4Bytes];
  while (len >= kBatch4Bytes) {
    Blocks4(state, ks);
    XorBytes(data, ks, kBatch4Bytes);
    state[12] += 4;
    data += kBatch4Bytes;
    len -= kBatch4Bytes;
  }
  if (len > kBlockBytes) {
    // 65..255 bytes left: one more batched generation is cheaper than up to
    // four serial blocks; surplus keystream is simply dropped.
    Blocks4(state, ks);
    XorBytes(data, ks, len);
    return;
  }
  if (len > 0) {
    BlockInto(state, ks);
    XorBytes(data, ks, len);
  }
}

Bytes ChaCha20Xor(const Key256& key, const Nonce96& nonce, uint32_t counter,
                  const Bytes& input) {
  Bytes out = input;
  ChaCha20XorInPlace(key, nonce, counter, out.data(), out.size());
  return out;
}

}  // namespace edgelet::crypto
