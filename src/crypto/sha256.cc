#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EDGELET_SHA_NI 1
#include <immintrin.h>
#endif

namespace edgelet::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// Whole-word stores: the compiler turns each into one byte-swapped store,
// which the next whole-block load can forward from.
inline void StoreBe32(uint8_t* p, uint32_t v) {
  const uint8_t b[4] = {static_cast<uint8_t>(v >> 24),
                        static_cast<uint8_t>(v >> 16),
                        static_cast<uint8_t>(v >> 8), static_cast<uint8_t>(v)};
  std::memcpy(p, b, sizeof(b));
}

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

namespace internal {

void Sha256BlocksScalar(uint32_t state[8], const uint8_t* data,
                        size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(data[4 * i]) << 24 |
             static_cast<uint32_t>(data[4 * i + 1]) << 16 |
             static_cast<uint32_t>(data[4 * i + 2]) << 8 |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(EDGELET_SHA_NI)

// Intel SHA extensions. The state lives in two registers as (A,B,E,F) and
// (C,D,G,H); each SHA256RNDS2 runs two rounds, so one 16-byte group of four
// message words takes two of them. The message schedule is kept four words
// per register in w[0..3] (words 4i..4i+3 of group i in w[i % 4]):
// SHA256MSG1 and SHA256MSG2 extend it four words at a time, the first for
// group i + 3 during group i, the second finishing group i + 1.
__attribute__((target("sha,sse4.1"))) void Sha256BlocksShaNi(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        w[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            kByteSwap);
      }
      const __m128i wk = _mm_add_epi32(
          w[i % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (i >= 3 && i < 15) {
        __m128i next = _mm_add_epi32(
            w[(i + 1) % 4], _mm_alignr_epi8(w[i % 4], w[(i + 3) % 4], 4));
        w[(i + 1) % 4] = _mm_sha256msg2_epu32(next, w[i % 4]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (i >= 1 && i < 13) {
        w[(i + 3) % 4] = _mm_sha256msg1_epu32(w[(i + 3) % 4], w[i % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

bool CpuHasShaNi() {
  static const bool has =
      __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  return has;
}

#else   // !EDGELET_SHA_NI

void Sha256BlocksShaNi(uint32_t state[8], const uint8_t* data,
                       size_t blocks) {
  Sha256BlocksScalar(state, data, blocks);
}

bool CpuHasShaNi() { return false; }

#endif  // EDGELET_SHA_NI

}  // namespace internal

Sha256::Sha256(const uint32_t midstate[8]) : bit_count_(512), buffer_len_(0) {
  std::memcpy(state_, midstate, sizeof(state_));
}

void Sha256::ProcessBlocks(const uint8_t* data, size_t blocks) {
  if (internal::CpuHasShaNi()) {
    internal::Sha256BlocksShaNi(state_, data, blocks);
  } else {
    internal::Sha256BlocksScalar(state_, data, blocks);
  }
}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;
  // Top up a partially filled buffer first; after that, full blocks are
  // compressed straight from the caller's data with no staging copy.
  if (buffer_len_ > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < sizeof(buffer_)) return;
    ProcessBlocks(buffer_, 1);
    buffer_len_ = 0;
  }
  if (size_t blocks = len / sizeof(buffer_); blocks > 0) {
    ProcessBlocks(p, blocks);
    p += blocks * sizeof(buffer_);
    len -= blocks * sizeof(buffer_);
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Digest256 Sha256::Finish() {
  // Padding, in place: 0x80, then zeros up to 56 mod 64, then the 64-bit
  // big-endian message length; one final block, or two when fewer than
  // 9 bytes of the buffer are free.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    ProcessBlocks(buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  StoreBe32(buffer_ + 56, static_cast<uint32_t>(bit_count_ >> 32));
  StoreBe32(buffer_ + 60, static_cast<uint32_t>(bit_count_));
  ProcessBlocks(buffer_, 1);
  buffer_len_ = 0;

  Digest256 out;
  for (int i = 0; i < 8; ++i) StoreBe32(out.data() + 4 * i, state_[i]);
  return out;
}

Digest256 Sha256::Hash(const void* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

Digest256 HmacSha256(const Bytes& key, const void* data, size_t len) {
  uint8_t k[64] = {0};
  if (key.size() > 64) {
    Digest256 kh = Sha256::Hash(key);
    std::memcpy(k, kh.data(), kh.size());
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }
  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.Update(ipad, 64);
  inner.Update(data, len);
  Digest256 inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(opad, 64);
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

Digest256 HmacSha256(const Bytes& key, const Bytes& data) {
  return HmacSha256(key, data.data(), data.size());
}

HmacSha256Key::HmacSha256Key(const uint8_t* key, size_t len) {
  uint8_t pad[64] = {0};
  if (len > sizeof(pad)) {
    Digest256 kh = Sha256::Hash(key, len);
    std::memcpy(pad, kh.data(), kh.size());
  } else if (len > 0) {
    std::memcpy(pad, key, len);
  }
  Sha256 inner, outer;
  for (uint8_t& b : pad) b ^= 0x36;
  inner.ProcessBlocks(pad, 1);
  for (uint8_t& b : pad) b ^= 0x36 ^ 0x5c;
  outer.ProcessBlocks(pad, 1);
  std::memcpy(inner_, inner.state_, sizeof(inner_));
  std::memcpy(outer_, outer.state_, sizeof(outer_));
}

Digest256 HmacSha256Key::Mac(const void* data, size_t len) const {
  Sha256 inner(inner_);
  inner.Update(data, len);
  Digest256 inner_digest = inner.Finish();
  Sha256 outer(outer_);
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

bool ConstantTimeEquals(const uint8_t* a, const uint8_t* b, size_t len) {
  uint8_t diff = 0;
  for (size_t i = 0; i < len; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace edgelet::crypto
