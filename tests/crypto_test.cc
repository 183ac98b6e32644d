#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/poly1305.h"
#include "crypto/sha256.h"

namespace edgelet::crypto {
namespace {

Bytes Hex(std::string_view s) {
  auto r = FromHex(s);
  EXPECT_TRUE(r.ok());
  return *r;
}

std::string DigestHex(const Digest256& d) {
  return ToHex(d.data(), d.size());
}

// --- SHA-256: NIST FIPS 180-4 vectors ------------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(h.Finish(), Sha256::Hash(msg)) << "split=" << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // 55/56/64 bytes straddle the padding edge cases.
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Sha256 h;
    h.Update(msg);
    EXPECT_EQ(h.Finish(), Sha256::Hash(msg)) << len;
  }
}

// Both compression functions over the same random states and blocks, and
// Sha256 (which runs whichever the CPU has) against the scalar rounds over
// whole messages.
TEST(Sha256Test, ShaNiMatchesScalar) {
  if (!internal::CpuHasShaNi()) GTEST_SKIP() << "CPU has no SHA-NI";
  Rng rng(7);
  uint8_t data[4 * 64];
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t scalar[8], sha_ni[8];
    for (uint32_t& w : scalar) w = static_cast<uint32_t>(rng.NextU64());
    std::memcpy(sha_ni, scalar, sizeof(scalar));
    for (uint8_t& b : data) b = static_cast<uint8_t>(rng.NextU64());
    const size_t blocks = 1 + trial % 4;
    internal::Sha256BlocksScalar(scalar, data, blocks);
    internal::Sha256BlocksShaNi(sha_ni, data, blocks);
    ASSERT_EQ(0, std::memcmp(scalar, sha_ni, sizeof(scalar)))
        << "trial " << trial;
  }

  Bytes msg(300);
  for (uint8_t& b : msg) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t len = 0; len <= msg.size(); ++len) {
    // The reference: FIPS 180-4 padding, then the scalar rounds.
    Bytes padded(msg.begin(), msg.begin() + len);
    padded.push_back(0x80);
    while (padded.size() % 64 != 56) padded.push_back(0);
    for (int i = 7; i >= 0; --i) {
      padded.push_back(static_cast<uint8_t>((uint64_t{len} * 8) >> (8 * i)));
    }
    uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    internal::Sha256BlocksScalar(state, padded.data(), padded.size() / 64);
    Digest256 expected;
    for (int i = 0; i < 32; ++i) {
      expected[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
    }
    ASSERT_EQ(Sha256::Hash(msg.data(), len), expected) << "len " << len;
  }
}

// --- HMAC-SHA256: RFC 4231 ------------------------------------------------

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto mac = HmacSha256(key, Bytes{'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'});
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Bytes key = BytesFromString("Jefe");
  Bytes data = BytesFromString("what do ya want for nothing?");
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4) {
  Bytes key = Hex("0102030405060708090a0b0c0d0e0f10111213141516171819");
  Bytes data(50, 0xcd);
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// RFC 4231 test case 6.
TEST(HmacTest, LongKeyIsHashed) {
  Bytes key(131, 0xaa);  // > block size, must be pre-hashed
  Bytes data = BytesFromString(
      "Test Using Larger Than Block-Size Key - Hash Key First");
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7) {
  // Key and data both longer than one block.
  Bytes key(131, 0xaa);
  Bytes data = BytesFromString(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, KeyScheduleMatchesOneShot) {
  Rng rng(11);
  Bytes msg(300);
  for (uint8_t& b : msg) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 131u}) {
    Bytes key(key_len);
    for (uint8_t& b : key) b = static_cast<uint8_t>(rng.NextU64());
    const HmacSha256Key schedule(key);
    for (size_t len = 0; len <= msg.size(); ++len) {
      ASSERT_EQ(schedule.Mac(msg.data(), len),
                HmacSha256(key, msg.data(), len))
          << "key " << key_len << " message " << len;
    }
  }
}

// --- ChaCha20: RFC 8439 -----------------------------------------------------

Key256 TestKey() {
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(i);
  return key;
}

TEST(ChaCha20Test, Rfc8439BlockFunction) {
  // RFC 8439 §2.3.2.
  Key256 key = TestKey();
  Nonce96 nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                   0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  auto block = ChaCha20Block(key, nonce, 1);
  EXPECT_EQ(ToHex(block.data(), block.size()),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439Encryption) {
  // RFC 8439 §2.4.2.
  Key256 key = TestKey();
  Nonce96 nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  Bytes plaintext = BytesFromString(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  Bytes ct = ChaCha20Xor(key, nonce, 1, plaintext);
  EXPECT_EQ(ToHex(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20Test, XorIsInvolution) {
  Key256 key = TestKey();
  Nonce96 nonce{};
  Bytes msg = BytesFromString("attack at dawn");
  Bytes ct = ChaCha20Xor(key, nonce, 7, msg);
  EXPECT_NE(ct, msg);
  EXPECT_EQ(ChaCha20Xor(key, nonce, 7, ct), msg);
}

TEST(ChaCha20Test, MultiBlockMessages) {
  Key256 key = TestKey();
  Nonce96 nonce{};
  for (size_t len : {0u, 1u, 63u, 64u, 65u, 128u, 1000u}) {
    Bytes msg(len, 0x5A);
    Bytes ct = ChaCha20Xor(key, nonce, 0, msg);
    EXPECT_EQ(ct.size(), len);
    EXPECT_EQ(ChaCha20Xor(key, nonce, 0, ct), msg);
  }
}

// --- Poly1305: RFC 8439 §2.5.2 ----------------------------------------------

TEST(Poly1305Test, Rfc8439Vector) {
  Bytes key_bytes = Hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::array<uint8_t, 32> key;
  std::memcpy(key.data(), key_bytes.data(), 32);
  Bytes msg = BytesFromString("Cryptographic Forum Research Group");
  Tag128 tag = Poly1305Mac(key, msg);
  EXPECT_EQ(ToHex(tag.data(), tag.size()),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305Test, EmptyMessage) {
  std::array<uint8_t, 32> key{};
  key[0] = 1;  // r = 1 (after clamp), s = 0
  Tag128 tag = Poly1305Mac(key, {});
  EXPECT_EQ(ToHex(tag.data(), tag.size()), "00000000000000000000000000000000");
}

// --- AEAD: RFC 8439 §2.8.2 ---------------------------------------------------

TEST(AeadTest, Rfc8439Vector) {
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(0x80 + i);
  Nonce96 nonce = {0x07, 0x00, 0x00, 0x00, 0x40, 0x41,
                   0x42, 0x43, 0x44, 0x45, 0x46, 0x47};
  Bytes aad = Hex("50515253c0c1c2c3c4c5c6c7");
  Bytes plaintext = BytesFromString(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  Bytes sealed = AeadSeal(key, nonce, aad, plaintext);
  ASSERT_EQ(sealed.size(), plaintext.size() + 16);
  EXPECT_EQ(ToHex(Bytes(sealed.begin(), sealed.end() - 16)),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116");
  EXPECT_EQ(ToHex(Bytes(sealed.end() - 16, sealed.end())),
            "1ae10b594f09e26a7e902ecbd0600691");

  auto opened = AeadOpen(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plaintext);
}

TEST(AeadTest, TamperedCiphertextRejected) {
  Key256 key{};
  Nonce96 nonce{};
  Bytes aad = BytesFromString("header");
  Bytes sealed = AeadSeal(key, nonce, aad, BytesFromString("secret"));
  sealed[0] ^= 1;
  EXPECT_FALSE(AeadOpen(key, nonce, aad, sealed).ok());
}

TEST(AeadTest, TamperedTagRejected) {
  Key256 key{};
  Nonce96 nonce{};
  Bytes sealed = AeadSeal(key, nonce, {}, BytesFromString("secret"));
  sealed.back() ^= 1;
  EXPECT_FALSE(AeadOpen(key, nonce, {}, sealed).ok());
}

TEST(AeadTest, WrongAadRejected) {
  Key256 key{};
  Nonce96 nonce{};
  Bytes sealed =
      AeadSeal(key, nonce, BytesFromString("route A"), BytesFromString("x"));
  EXPECT_FALSE(AeadOpen(key, nonce, BytesFromString("route B"), sealed).ok());
}

TEST(AeadTest, WrongKeyRejected) {
  Key256 k1{}, k2{};
  k2[0] = 1;
  Nonce96 nonce{};
  Bytes sealed = AeadSeal(k1, nonce, {}, BytesFromString("x"));
  EXPECT_FALSE(AeadOpen(k2, nonce, {}, sealed).ok());
}

TEST(AeadTest, TooShortInputRejected) {
  Key256 key{};
  Nonce96 nonce{};
  EXPECT_FALSE(AeadOpen(key, nonce, {}, Bytes(15, 0)).ok());
}

TEST(AeadTest, EmptyPlaintextRoundTrip) {
  Key256 key{};
  Nonce96 nonce{};
  Bytes sealed = AeadSeal(key, nonce, {}, {});
  EXPECT_EQ(sealed.size(), 16u);
  auto opened = AeadOpen(key, nonce, {}, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

TEST(AeadTest, NonceFromSequenceUnique) {
  auto n1 = NonceFromSequence(1, 1);
  auto n2 = NonceFromSequence(1, 2);
  auto n3 = NonceFromSequence(2, 1);
  EXPECT_NE(n1, n2);
  EXPECT_NE(n1, n3);
  EXPECT_NE(n2, n3);
}

TEST(ConstantTimeEqualsTest, Basic) {
  uint8_t a[4] = {1, 2, 3, 4};
  uint8_t b[4] = {1, 2, 3, 4};
  uint8_t c[4] = {1, 2, 3, 5};
  EXPECT_TRUE(ConstantTimeEquals(a, b, 4));
  EXPECT_FALSE(ConstantTimeEquals(a, c, 4));
  EXPECT_TRUE(ConstantTimeEquals(a, c, 3));
  EXPECT_TRUE(ConstantTimeEquals(a, c, 0));
}

// --- SHA-256: additional NIST FIPS 180-4 vector ---------------------------

TEST(Sha256Test, FourBlockMessage) {
  EXPECT_EQ(DigestHex(Sha256::Hash(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256Test, ChunkedUpdateAllSplitsMatchOneShot) {
  Bytes msg(257, 0);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i);
  Digest256 expected = Sha256::Hash(msg.data(), msg.size());
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(msg.data(), split);
    h.Update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(h.Finish(), expected) << "split at " << split;
  }
}

// --- ChaCha20: §2.6.2 one-time key generation, in-place equivalence -------

TEST(ChaCha20Test, Rfc8439Poly1305KeyGeneration) {
  // RFC 8439 §2.6.2: the Poly1305 one-time key is the first 32 bytes of the
  // ChaCha20 block at counter 0.
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(0x80 + i);
  Nonce96 nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
                   0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  auto block = ChaCha20Block(key, nonce, 0);
  EXPECT_EQ(ToHex(block.data(), 32),
            "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646");
}

TEST(ChaCha20Test, XorInPlaceMatchesXorAllLengths) {
  // Covers every code path: empty, sub-block, exact block, the batched
  // 4-block loop, the 8-block AVX2 loop (when present), and all tails.
  Key256 key = TestKey();
  Nonce96 nonce = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  Bytes msg(1300, 0);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  for (size_t len = 0; len <= 300; ++len) {
    Bytes expected = ChaCha20Xor(key, nonce, 1,
                                 Bytes(msg.begin(), msg.begin() + len));
    Bytes in_place(msg.begin(), msg.begin() + len);
    ChaCha20XorInPlace(key, nonce, 1, in_place.data(), len);
    EXPECT_EQ(in_place, expected) << "len " << len;
  }
  for (size_t len : {512u, 513u, 767u, 768u, 1024u, 1300u}) {
    Bytes expected = ChaCha20Xor(key, nonce, 1,
                                 Bytes(msg.begin(), msg.begin() + len));
    Bytes in_place(msg.begin(), msg.begin() + len);
    ChaCha20XorInPlace(key, nonce, 1, in_place.data(), len);
    EXPECT_EQ(in_place, expected) << "len " << len;
  }
}

TEST(ChaCha20Test, XorInPlaceUnalignedBuffer) {
  Key256 key = TestKey();
  Nonce96 nonce{};
  Bytes msg(600, 0xAB);
  Bytes expected = ChaCha20Xor(key, nonce, 3, msg);
  // Operate at an odd offset inside a larger buffer so no alignment can be
  // assumed by the kernel.
  Bytes padded(601, 0xAB);
  ChaCha20XorInPlace(key, nonce, 3, padded.data() + 1, 600);
  EXPECT_EQ(Bytes(padded.begin() + 1, padded.end()), expected);
}

// --- Poly1305: incremental streaming --------------------------------------

TEST(Poly1305Test, IncrementalAllSplitsMatchOneShot) {
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(i * 7 + 1);
  Bytes msg(83, 0);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i);
  Tag128 expected = Poly1305Mac(key, msg);
  for (size_t split = 0; split <= msg.size(); ++split) {
    Poly1305 mac(key);
    mac.Update(msg.data(), split);
    mac.Update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(mac.Finalize(), expected) << "split at " << split;
  }
}

TEST(Poly1305Test, ByteAtATimeMatchesOneShot) {
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(255 - i);
  Bytes msg(49, 0x3C);
  Poly1305 mac(key);
  for (uint8_t b : msg) mac.Update(&b, 1);
  EXPECT_EQ(mac.Finalize(), Poly1305Mac(key, msg));
}

// --- AEAD: in-place variants, round trips, and bit-flip rejection ---------

TEST(AeadTest, SealIntoMatchesSealWithScratchReuse) {
  Key256 key = TestKey();
  Bytes aad = BytesFromString("routing header");
  Bytes scratch;  // deliberately reused across all iterations
  for (size_t len : {0u, 1u, 16u, 100u, 1024u, 130u, 5u}) {
    Nonce96 nonce = NonceFromSequence(9, len);
    Bytes plaintext(len, static_cast<uint8_t>(len));
    Bytes expected = AeadSeal(key, nonce, aad, plaintext);
    AeadSealInto(key, nonce, aad.data(), aad.size(), plaintext.data(),
                 plaintext.size(), &scratch);
    EXPECT_EQ(scratch, expected) << "len " << len;
  }
}

TEST(AeadTest, OpenIntoMatchesOpenWithScratchReuse) {
  Key256 key = TestKey();
  Bytes aad = BytesFromString("hdr");
  Bytes scratch;
  for (size_t len : {1024u, 0u, 64u, 3u}) {
    Nonce96 nonce = NonceFromSequence(4, len);
    Bytes plaintext(len, 0x77);
    Bytes sealed = AeadSeal(key, nonce, aad, plaintext);
    ASSERT_TRUE(AeadOpenInto(key, nonce, aad.data(), aad.size(),
                             sealed.data(), sealed.size(), &scratch)
                    .ok());
    EXPECT_EQ(scratch, plaintext) << "len " << len;
  }
}

TEST(AeadTest, RoundTripAllLengthsThroughTwoBlocks) {
  Key256 key = TestKey();
  Bytes aad = BytesFromString("aad");
  for (size_t len = 0; len <= 130; ++len) {
    Nonce96 nonce = NonceFromSequence(1, len);
    Bytes plaintext(len, 0);
    for (size_t i = 0; i < len; ++i) plaintext[i] = static_cast<uint8_t>(i);
    Bytes sealed = AeadSeal(key, nonce, aad, plaintext);
    ASSERT_EQ(sealed.size(), len + 16u);
    auto opened = AeadOpen(key, nonce, aad, sealed);
    ASSERT_TRUE(opened.ok()) << "len " << len;
    EXPECT_EQ(*opened, plaintext) << "len " << len;
  }
}

TEST(AeadTest, EverySingleBitFlipRejected) {
  Key256 key = TestKey();
  Nonce96 nonce = NonceFromSequence(2, 42);
  Bytes aad = BytesFromString("route");
  Bytes plaintext = BytesFromString("twenty-four byte secret!");
  Bytes sealed = AeadSeal(key, nonce, aad, plaintext);

  // Any flipped bit anywhere in ciphertext or tag must fail authentication.
  for (size_t byte = 0; byte < sealed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes corrupt = sealed;
      corrupt[byte] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_FALSE(AeadOpen(key, nonce, aad, corrupt).ok())
          << "byte " << byte << " bit " << bit;
    }
  }
  // Same for every bit of the associated data.
  for (size_t byte = 0; byte < aad.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad_aad = aad;
      bad_aad[byte] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_FALSE(AeadOpen(key, nonce, bad_aad, sealed).ok())
          << "aad byte " << byte << " bit " << bit;
    }
  }
}

// --- AEAD: the 192-byte short-message cutoff ------------------------------

// RFC 8439 §2.8 composed from its parts: the one-time key from the scalar
// ChaCha20Block at counter 0, the payload XOR from counter 1, and the tag
// over aad || pad16 || ct || pad16 || le64(len aad) || le64(len ct).
Bytes ReferenceSeal(const Key256& key, const Nonce96& nonce, const Bytes& aad,
                    const Bytes& plaintext) {
  std::array<uint8_t, 64> block0 = ChaCha20Block(key, nonce, 0);
  std::array<uint8_t, 32> otk;
  std::memcpy(otk.data(), block0.data(), otk.size());
  Bytes ct = plaintext;
  ChaCha20XorInPlace(key, nonce, 1, ct.data(), ct.size());
  Bytes mac_input = aad;
  mac_input.resize((aad.size() + 15) / 16 * 16, 0);
  mac_input.insert(mac_input.end(), ct.begin(), ct.end());
  mac_input.resize((mac_input.size() + 15) / 16 * 16, 0);
  for (uint64_t len : {uint64_t{aad.size()}, uint64_t{ct.size()}}) {
    for (int i = 0; i < 8; ++i) {
      mac_input.push_back(static_cast<uint8_t>(len >> (8 * i)));
    }
  }
  Tag128 tag = Poly1305Mac(otk, mac_input);
  ct.insert(ct.end(), tag.begin(), tag.end());
  return ct;
}

TEST(AeadTest, MatchesReferenceCompositionAcrossShortCutoff) {
  // Lengths 0-320 cover the one-batch path (<= 192), the cutoff itself,
  // and the bulk path's scalar, 4-block and tail cases beyond it.
  Key256 key = TestKey();
  Bytes sealed, opened;
  for (size_t aad_len = 0; aad_len <= 40; ++aad_len) {
    Bytes aad(aad_len);
    for (size_t i = 0; i < aad_len; ++i) aad[i] = static_cast<uint8_t>(i * 7);
    for (size_t len = 0; len <= 320; ++len) {
      Nonce96 nonce = NonceFromSequence(aad_len, len);
      Bytes plaintext(len);
      for (size_t i = 0; i < len; ++i) {
        plaintext[i] = static_cast<uint8_t>(i * 31 + aad_len);
      }
      Bytes expected = ReferenceSeal(key, nonce, aad, plaintext);
      AeadSealInto(key, nonce, aad.data(), aad.size(), plaintext.data(),
                   plaintext.size(), &sealed);
      ASSERT_EQ(sealed, expected) << "len " << len << " aad " << aad_len;
      ASSERT_TRUE(AeadOpenInto(key, nonce, aad.data(), aad.size(),
                               expected.data(), expected.size(), &opened)
                      .ok())
          << "len " << len << " aad " << aad_len;
      ASSERT_EQ(opened, plaintext) << "len " << len << " aad " << aad_len;
    }
  }
}

TEST(AeadTest, BitFlipRejectedEitherSideOfShortCutoff) {
  Key256 key = TestKey();
  Bytes aad = BytesFromString("hdr");
  Bytes out;
  for (size_t len : {size_t{192}, size_t{193}}) {
    Nonce96 nonce = NonceFromSequence(5, len);
    Bytes sealed = AeadSeal(key, nonce, aad, Bytes(len, 0xA5));
    for (size_t byte = 0; byte < sealed.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes corrupt = sealed;
        corrupt[byte] ^= static_cast<uint8_t>(1 << bit);
        EXPECT_FALSE(AeadOpenInto(key, nonce, aad.data(), aad.size(),
                                  corrupt.data(), corrupt.size(), &out)
                         .ok())
            << "len " << len << " byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(ChaCha20Test, Blocks4MatchesFourScalarBlocks) {
  Key256 key = TestKey();
  Nonce96 nonce = NonceFromSequence(3, 9);
  for (uint32_t counter : {0u, 1u, 0xFFFFFFFEu}) {
    uint8_t batch[kChaCha20Batch4Bytes];
    ChaCha20Blocks4(key, nonce, counter, batch);
    for (uint32_t j = 0; j < 4; ++j) {
      std::array<uint8_t, 64> block = ChaCha20Block(key, nonce, counter + j);
      EXPECT_EQ(std::memcmp(batch + 64 * j, block.data(), 64), 0)
          << "counter " << counter << " block " << j;
    }
  }
}

// --- NonceFromSequence: 64-bit channel ids --------------------------------

TEST(AeadTest, NonceFromSequenceUsesHighChannelBits) {
  // Regression: channel ids differing only above bit 32 used to truncate to
  // the same nonce, silently reusing (key, nonce) pairs across channels.
  uint64_t low = 1;
  uint64_t high = 1 | (1ull << 32);
  EXPECT_NE(NonceFromSequence(low, 7), NonceFromSequence(high, 7));
}

TEST(AeadTest, NonceFromSequenceLayoutPinned) {
  // Channel ids below 2^32 keep their historical byte-exact nonce layout:
  // LE32 channel, then LE64 sequence.
  Nonce96 n = NonceFromSequence(0x11223344u, 0x5566778899aabbccull);
  const uint8_t expected[12] = {0x44, 0x33, 0x22, 0x11, 0xcc, 0xbb,
                                0xaa, 0x99, 0x88, 0x77, 0x66, 0x55};
  EXPECT_TRUE(std::equal(n.begin(), n.end(), expected));
}

}  // namespace
}  // namespace edgelet::crypto
