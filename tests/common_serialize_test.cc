#include "common/serialize.h"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"

namespace edgelet {
namespace {

TEST(SerializeTest, FixedWidthRoundTrip) {
  Writer w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutBool(false);
  w.PutDouble(3.14159);

  Reader r(w.data());
  EXPECT_EQ(*r.GetU8(), 0xAB);
  EXPECT_EQ(*r.GetU16(), 0xBEEF);
  EXPECT_EQ(*r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.GetI64(), -42);
  EXPECT_TRUE(*r.GetBool());
  EXPECT_FALSE(*r.GetBool());
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 3.14159);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, LittleEndianLayout) {
  Writer w;
  w.PutU32(0x01020304);
  const Bytes& b = w.data();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
}

TEST(SerializeTest, VarintRoundTrip) {
  const uint64_t cases[] = {0,    1,    127,  128,
                            300,  16383, 16384, 1ULL << 32,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    Writer w;
    w.PutVarint(v);
    Reader r(w.data());
    EXPECT_EQ(*r.GetVarint(), v) << v;
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(SerializeTest, VarintEncodingSize) {
  Writer w;
  w.PutVarint(127);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.PutVarint(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(SerializeTest, SignedVarintRoundTrip) {
  const int64_t cases[] = {0,  -1, 1,  -64, 64, -65,
                           1000000, -1000000,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  for (int64_t v : cases) {
    Writer w;
    w.PutVarintSigned(v);
    Reader r(w.data());
    EXPECT_EQ(*r.GetVarintSigned(), v) << v;
  }
}

TEST(SerializeTest, StringAndBytesRoundTrip) {
  Writer w;
  w.PutString("hello, edgelet");
  w.PutString("");
  Bytes blob = {0x00, 0xFF, 0x7F, 0x80};
  w.PutBytes(blob);

  Reader r(w.data());
  EXPECT_EQ(*r.GetString(), "hello, edgelet");
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_EQ(*r.GetBytes(), blob);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncatedReadsFail) {
  Writer w;
  w.PutU64(1);
  Reader r(w.data().data(), 4);
  auto res = r.GetU64();
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, TruncatedStringFails) {
  Writer w;
  w.PutString("abcdef");
  Reader r(w.data().data(), 3);  // length prefix says 6, only 2 available
  EXPECT_FALSE(r.GetString().ok());
}

TEST(SerializeTest, OverlongVarintFails) {
  Bytes b(11, 0xFF);  // 11 continuation bytes > max 10 for 64-bit
  Reader r(b);
  EXPECT_FALSE(r.GetVarint().ok());
}

TEST(SerializeTest, BoolByteValidation) {
  Bytes b = {2};
  Reader r(b);
  auto res = r.GetBool();
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, DoubleSpecialValues) {
  Writer w;
  w.PutDouble(std::numeric_limits<double>::infinity());
  w.PutDouble(-0.0);
  Reader r(w.data());
  EXPECT_EQ(*r.GetDouble(), std::numeric_limits<double>::infinity());
  double neg_zero = *r.GetDouble();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
}

// --- Field-list codec --------------------------------------------------------

enum class Shade : uint8_t { kLight = 0, kDark = 1 };
constexpr Shade WireLastTag(Shade) { return Shade::kDark; }

// A leaf with its own Serialize/Deserialize.
struct Label {
  std::string text;
  void Serialize(Writer* w) const { w->PutString(text); }
  static Result<Label> Deserialize(Reader* r) {
    auto t = r->GetString();
    if (!t.ok()) return t.status();
    return Label{std::move(*t)};
  }
  bool operator==(const Label&) const = default;
};

struct Inner {
  uint32_t a = 0;
  Shade shade = Shade::kLight;
  template <typename M>
  static auto Fields(M& m) { return std::tie(m.a, m.shade); }
  bool operator==(const Inner&) const = default;
};

struct Outer {
  uint64_t id = 0;
  bool flag = false;
  Bytes blob;
  std::vector<Inner> inners;
  std::vector<std::vector<uint32_t>> nested;
  Label label;
  bool has_note = false;
  std::map<uint32_t, std::pair<uint32_t, Label>> by_id;
  std::set<uint32_t> seen;
  Label note;  // guarded by has_note, which is not adjacent
  int rounds = 0;
  template <typename M>
  static auto Fields(M& m) {
    return wire::Tie(m.id, m.flag, m.blob, m.inners, m.nested, m.label,
                     m.has_note, m.by_id, m.seen, wire::If(m.has_note, m.note),
                     m.rounds);
  }
  bool operator==(const Outer&) const = default;
};

Outer SampleOuter(bool has_note = true) {
  return {0x0102030405060708ULL,
          true,
          {0xAA, 0xBB},
          {{7, Shade::kDark}, {8, Shade::kLight}},
          {{1, 2}, {}},
          {"hi"},
          has_note,
          {{9, {3, {"x"}}}, {4, {5, {"yz"}}}},
          {300, 2},
          has_note ? Label{"note"} : Label{},
          200};
}

struct FlatKeys {
  FlatSet64 keys;
  template <typename M>
  static auto Fields(M& m) { return std::tie(m.keys); }
};

struct SortedKeys {
  std::set<uint64_t> keys;
  template <typename M>
  static auto Fields(M& m) { return std::tie(m.keys); }
};

TEST(WireCodecTest, OneEncodingPerFieldType) {
  for (bool has_note : {true, false}) {
    Writer expected;
    expected.PutU64(0x0102030405060708ULL);
    expected.PutBool(true);
    expected.PutBytes({0xAA, 0xBB});
    expected.PutVarint(2);
    expected.PutU32(7);
    expected.PutU8(1);
    expected.PutU32(8);
    expected.PutU8(0);
    expected.PutVarint(2);
    expected.PutVarint(2);
    expected.PutU32(1);
    expected.PutU32(2);
    expected.PutVarint(0);
    expected.PutString("hi");
    expected.PutBool(has_note);
    expected.PutVarint(2);  // map: ascending keys, each with its value
    expected.PutU32(4);
    expected.PutU32(5);     // pair: first, then second
    expected.PutString("yz");
    expected.PutU32(9);
    expected.PutU32(3);
    expected.PutString("x");
    expected.PutVarint(2);  // set: ascending keys
    expected.PutU32(2);
    expected.PutU32(300);
    if (has_note) expected.PutString("note");
    expected.PutVarint(200);  // int: a varint
    EXPECT_EQ(wire::Encode(SampleOuter(has_note)), expected.data())
        << has_note;

    auto back = wire::Decode<Outer>(expected.data());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, SampleOuter(has_note));
  }

  // A FlatSet64 writes the bytes of the std::set of its keys.
  const std::vector<uint64_t> scrambled = {90, 0, UINT64_MAX, 3, 1ull << 40,
                                           17};
  FlatKeys flat;
  SortedKeys sorted;
  for (uint64_t k : scrambled) {
    flat.keys.Insert(k);
    sorted.keys.insert(k);
  }
  const Bytes bytes = wire::Encode(flat);
  EXPECT_EQ(bytes, wire::Encode(sorted));
  auto back = wire::Decode<FlatKeys>(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->keys.size(), scrambled.size());
  for (uint64_t k : scrambled) EXPECT_TRUE(back->keys.Contains(k)) << k;
}

// A map value that counts its decodes.
struct Probe {
  static inline int decoded = 0;
  uint32_t v = 0;
  void Serialize(Writer* w) const { w->PutU32(v); }
  static Result<Probe> Deserialize(Reader* r) {
    ++decoded;
    auto v = r->GetU32();
    if (!v.ok()) return v.status();
    return Probe{*v};
  }
};

struct Keyed {
  std::map<uint32_t, Probe> map;
  std::set<uint32_t> set;
  template <typename M>
  static auto Fields(M& m) { return std::tie(m.map, m.set); }
};

struct Note {
  bool has = false;
  Label text;
  template <typename M>
  static auto Fields(M& m) { return wire::Tie(m.has, wire::If(m.has, m.text)); }
};

struct Count {
  int n = 0;
  template <typename M>
  static auto Fields(M& m) { return std::tie(m.n); }
};

// A Keyed record: map keys (each with the value 0), then set keys.
Bytes KeyedBytes(const std::vector<uint32_t>& map_keys,
                 const std::vector<uint32_t>& set_keys) {
  Writer w;
  w.PutVarint(map_keys.size());
  for (uint32_t k : map_keys) {
    w.PutU32(k);
    w.PutU32(0);
  }
  w.PutVarint(set_keys.size());
  for (uint32_t k : set_keys) w.PutU32(k);
  return w.Take();
}

TEST(WireCodecTest, EveryDecodeFailureIsCorruption) {
  const Bytes full = wire::Encode(SampleOuter());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    auto r = wire::Decode<Outer>(Bytes(full.begin(), full.begin() + cut));
    ASSERT_FALSE(r.ok()) << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << cut;
  }

  Bytes bad_tag = wire::Encode(Inner{1, Shade::kDark});
  bad_tag[4] = 2;
  EXPECT_EQ(wire::Decode<Inner>(bad_tag).status().code(),
            StatusCode::kCorruption);

  Writer hostile;
  hostile.PutU64(1);
  hostile.PutBool(false);
  hostile.PutBytes({});
  hostile.PutVarint(uint64_t{1} << 40);  // inners
  hostile.PutU32(0);
  EXPECT_EQ(wire::Decode<Outer>(hostile.data()).status().code(),
            StatusCode::kCorruption);

  // Map and set keys must be strictly ascending.
  ASSERT_TRUE(wire::Decode<Keyed>(KeyedBytes({1, 2}, {1, 2})).ok());
  for (const Bytes& bad :
       {KeyedBytes({2, 2}, {}), KeyedBytes({2, 1}, {}),
        KeyedBytes({}, {7, 7}), KeyedBytes({}, {8, 7})}) {
    EXPECT_EQ(wire::Decode<Keyed>(bad).status().code(),
              StatusCode::kCorruption);
  }

  // A map count the input cannot hold, at 4 key bytes per entry, is
  // rejected before any entry is decoded: two 8-byte entries present,
  // five (or 2^40) claimed.
  for (uint64_t claimed : {uint64_t{5}, uint64_t{1} << 40}) {
    Writer w;
    w.PutVarint(claimed);
    for (uint32_t k : {1u, 2u}) {
      w.PutU32(k);
      w.PutU32(0);
    }
    Probe::decoded = 0;
    EXPECT_EQ(wire::Decode<Keyed>(w.data()).status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ(Probe::decoded, 0) << claimed;
  }

  // A guarded value: absent when its flag is off, required when it is on.
  EXPECT_TRUE(wire::Decode<Note>(Bytes{0}).ok());
  for (const Bytes& truncated : {Bytes{1}, Bytes{1, 5, 'n', 'o'}}) {
    EXPECT_EQ(wire::Decode<Note>(truncated).status().code(),
              StatusCode::kCorruption);
  }

  // int: a varint up to INT_MAX.
  Writer max_int;
  max_int.PutVarint(INT_MAX);
  auto at_max = wire::Decode<Count>(max_int.data());
  ASSERT_TRUE(at_max.ok());
  EXPECT_EQ(at_max->n, INT_MAX);
  Writer above;
  above.PutVarint(uint64_t{INT_MAX} + 1);
  EXPECT_EQ(wire::Decode<Count>(above.data()).status().code(),
            StatusCode::kCorruption);
}

// A map entry that carries its own key, and a record that checks what it
// decoded.
struct Entry {
  std::string name;
  uint64_t hits = 0;
  template <typename M>
  static auto Fields(M& m) { return wire::Tie(m.name, wire::Varint(m.hits)); }
  bool operator==(const Entry&) const = default;
};

std::string NameOf(const Entry& e) { return e.name; }

struct Ledger {
  std::optional<double> scale;
  std::map<std::string, Entry> entries;
  static inline int finished = 0;
  template <typename M>
  static auto Fields(M& m) {
    return wire::Tie(m.scale, wire::Values(m.entries, &NameOf));
  }
  Status FinishDecode() {
    ++finished;
    if (scale.has_value() && *scale < 0) return Status::InvalidArgument("<0");
    return Status::OK();
  }
  bool operator==(const Ledger& other) const {
    return scale == other.scale && entries == other.entries;
  }
};

// A Ledger: the scale if any, then entries in the order given.
Bytes LedgerBytes(std::optional<double> scale,
                  const std::vector<Entry>& entries) {
  Writer w;
  w.PutBool(scale.has_value());
  if (scale.has_value()) w.PutDouble(*scale);
  w.PutVarint(entries.size());
  for (const Entry& e : entries) {
    w.PutString(e.name);
    w.PutVarint(e.hits);
  }
  return w.Take();
}

TEST(WireCodecTest, LeafRules) {
  // std::string and double, optional, Varint and Values in one list.
  const Ledger ledger{-0.0, {{"a", {"a", 300}}, {"b", {"b", 1}}}};
  const Bytes bytes = LedgerBytes(-0.0, {{"a", 300}, {"b", 1}});
  EXPECT_EQ(wire::Encode(ledger), bytes);
  Ledger::finished = 0;
  auto back = wire::Decode<Ledger>(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, ledger);
  EXPECT_TRUE(std::signbit(*back->scale));
  EXPECT_EQ(Ledger::finished, 1);
  EXPECT_EQ(wire::Encode(Ledger{}), LedgerBytes(std::nullopt, {}));

  // Rebuilt keys must be strictly ascending.
  for (const Bytes& bad : {LedgerBytes(1.0, {{"b", 1}, {"a", 1}}),
                           LedgerBytes(1.0, {{"a", 1}, {"a", 2}})}) {
    EXPECT_EQ(wire::Decode<Ledger>(bad).status().code(),
              StatusCode::kCorruption);
  }
  // FinishDecode runs once the fields are read; its failure is
  // Corruption.
  EXPECT_EQ(wire::Decode<Ledger>(LedgerBytes(-1.0, {})).status().code(),
            StatusCode::kCorruption);

  // A count is checked at a record's least encoded size, the sum of its
  // fields': a string (1 byte) and a varint (1) per Entry, 8 per double.
  static_assert(wire::kMinBytes<Entry> == 2);
  static_assert(wire::kMinBytes<Ledger> == 2);
  static_assert(wire::kMinBytes<double> == 8);
  for (uint64_t claimed : {uint64_t{3}, uint64_t{5}}) {
    Writer w;
    w.PutVarint(claimed);
    for (int i = 0; i < 3; ++i) w.PutDouble(1.0);
    Reader r(w.data());
    EXPECT_EQ(wire::Read<std::vector<double>>(&r).ok(), claimed == 3);
  }
}

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(ToHex(b), "deadbeef");
  auto back = FromHex("deadbeef");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, b);
  auto upper = FromHex("DEADBEEF");
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(*upper, b);
}

TEST(BytesTest, HexRejectsBadInput) {
  EXPECT_FALSE(FromHex("abc").ok());   // odd length
  EXPECT_FALSE(FromHex("zz").ok());    // non-hex
}

TEST(BytesTest, EmptyHex) {
  EXPECT_EQ(ToHex(Bytes{}), "");
  auto b = FromHex("");
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->empty());
}

}  // namespace
}  // namespace edgelet
