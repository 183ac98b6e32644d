#ifndef EDGELET_COMMON_SERIALIZE_H_
#define EDGELET_COMMON_SERIALIZE_H_

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/status.h"

namespace edgelet {

// Append-only binary encoder. Integers are little-endian fixed width or
// LEB128 varints; strings and blobs are varint-length-prefixed. The wire
// format is what edgelets exchange (inside AEAD envelopes), so it must be
// deterministic and platform independent.
//
// Fixed-width puts stage the bytes in a small stack buffer and append with
// one insert, and the common one-byte varint is inlined; encoding a message
// is a handful of memcpy-sized appends rather than per-byte push_backs.
class Writer {
 public:
  Writer() = default;
  explicit Writer(size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  // Unsigned LEB128.
  void PutVarint(uint64_t v) {
    if (v < 0x80) {
      buf_.push_back(static_cast<uint8_t>(v));
      return;
    }
    PutVarintSlow(v);
  }
  // ZigZag-encoded signed varint.
  void PutVarintSigned(int64_t v) {
    uint64_t zz = (static_cast<uint64_t>(v) << 1) ^
                  static_cast<uint64_t>(v >> 63);
    PutVarint(zz);
  }

  void PutString(std::string_view s);
  void PutBytes(const Bytes& b);
  void PutRaw(const void* data, size_t len);

  // Clears the content but keeps the allocation, so one Writer can encode
  // a stream of messages without reallocating per message.
  void Reset() { buf_.clear(); }
  void Reserve(size_t n) { buf_.reserve(n); }

  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    uint8_t tmp[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      tmp[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), tmp, tmp + sizeof(T));
  }
  void PutVarintSlow(uint64_t v);

  Bytes buf_;
};

// Sequential decoder over a byte span; every getter fails cleanly (never
// reads past the end) so corrupt or truncated messages surface as Status.
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Reader(const Bytes& b) : Reader(b.data(), b.size()) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<bool> GetBool();
  Result<double> GetDouble();
  Result<uint64_t> GetVarint() {
    // One-byte fast path: the overwhelmingly common case for lengths and
    // small counters.
    if (pos_ < len_) {
      uint8_t byte = data_[pos_];
      if ((byte & 0x80) == 0) {
        ++pos_;
        return static_cast<uint64_t>(byte);
      }
    }
    return GetVarintSlow();
  }
  Result<int64_t> GetVarintSigned();
  Result<std::string> GetString();
  Result<Bytes> GetBytes();

  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

  // Fails with Corruption unless `count` elements of at least
  // `min_bytes_each` (>= 1) bytes apiece can still fit in the unread input.
  // Every decoder runs this before sizing a container (or looping) from a
  // wire count, so a hostile count cannot make it allocate without bound.
  Status CheckCount(uint64_t count, size_t min_bytes_each = 1) const {
    if (count > remaining() / min_bytes_each) {
      return Status::Corruption("element count " + std::to_string(count) +
                                " exceeds the remaining " +
                                std::to_string(remaining()) + " bytes");
    }
    return Status::OK();
  }

  // Consumes the next `len` bytes iff they equal data[0..len).
  bool ConsumeIfEquals(const uint8_t* data, size_t len) {
    if (remaining() < len || std::memcmp(data_ + pos_, data, len) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }

 private:
  Status Need(size_t n);
  Result<uint64_t> GetVarintSlow();

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};


// --- Field-list codec --------------------------------------------------------
//
// A wire or disk record states its layout once, as a field list:
//
//   template <typename M>
//   static auto Fields(M& m) { return std::tie(m.query_id, m.role, ...); }
//
// and wire::Encode / wire::Decode derive both directions from it. Each
// field type has one encoding:
//
//   uint32_t, uint64_t   fixed width, little-endian
//   double               fixed 8 bytes, the IEEE-754 bits
//   int                  varint; rejected above INT_MAX
//   Varint(u64 field)    varint
//   bool                 one byte, 0 or 1
//   wire enum            one byte, rejected above WireLastTag(E{}), a
//                        constexpr function declared next to the enum
//   std::string, Bytes   varint length, then the bytes
//   std::optional<T>     presence bool, then the value if present
//   std::vector<T>       varint count (CheckCount), then each element
//   std::pair<A, B>      first, then second
//   std::map<K, V>,      varint count (CheckCount), then each entry (a
//   std::set<K>,         map's as a key-value pair); keys strictly
//   FlatSet64            ascending
//   Values(map, key_of)  a map whose values carry their keys: varint
//                        count, then each value; the decoder rebuilds each
//                        key with key_of and requires them strictly
//                        ascending
//   If(flag, value)      value, only if the bool `flag` (earlier in the
//                        list) is true
//   record with Fields   its fields in order; a record with a
//                        `Status FinishDecode()` member has it called once
//                        its fields are read, to check (or complete) them
//   any other type       its own Serialize(Writer*) / Deserialize(Reader*)
//
// A list holding Varint, Values or If is built with wire::Tie, which keeps
// those wrappers by value. Every decode failure is Corruption. Trailing
// bytes are not an error.
namespace wire {

template <typename T>
concept Record = requires(T& m) { T::Fields(m); };

// True when T is a specialization of Tmpl.
template <typename T, template <typename...> class Tmpl>
inline constexpr bool kIs = false;
template <template <typename...> class Tmpl, typename... A>
inline constexpr bool kIs<Tmpl<A...>, Tmpl> = true;

// A field present only when `flag`, a bool field earlier in the same
// list, is true.
template <typename V>
struct Guarded {
  const bool& flag;
  V& value;
};
template <typename V>
Guarded<V> If(const bool& flag, V& value) {
  return {flag, value};
}

// A 64-bit unsigned field written as a varint.
template <typename V>
struct VarintField {
  V& value;
};
template <typename V>
VarintField<V> Varint(V& value) {
  static_assert(std::is_unsigned_v<std::remove_const_t<V>> && sizeof(V) == 8);
  return {value};
}

// A map whose values determine their keys: only the values go on the wire,
// in key order, and the decoder rebuilds each key with `key_of`.
template <typename Map, typename KeyOf>
struct MapValues {
  Map& map;
  KeyOf key_of;
};
template <typename Map, typename KeyOf>
MapValues<Map, KeyOf> Values(Map& map, KeyOf key_of) {
  return {map, key_of};
}

template <typename T>
constexpr size_t MinBytes();

template <typename... F>
constexpr size_t SumMinBytes(const std::tuple<F...>*) {
  return (size_t{0} + ... + MinBytes<std::remove_cvref_t<F>>());
}

// The fewest bytes one encoded T takes: what CheckCount sizes a count by.
// A record takes the sum of its fields' (at least 1).
template <typename T>
constexpr size_t MinBytes() {
  if constexpr (std::is_same_v<T, uint32_t>) {
    return 4;
  } else if constexpr (std::is_same_v<T, uint64_t> ||
                       std::is_same_v<T, double>) {
    return 8;
  } else if constexpr (kIs<T, Guarded>) {
    return 0;
  } else if constexpr (kIs<T, std::pair>) {
    return MinBytes<std::remove_cv_t<typename T::first_type>>() +
           MinBytes<typename T::second_type>();
  } else if constexpr (Record<T>) {
    using List = decltype(T::Fields(std::declval<T&>()));
    return std::max<size_t>(1, SumMinBytes(static_cast<const List*>(nullptr)));
  } else {
    return 1;
  }
}
template <typename T>
inline constexpr size_t kMinBytes = MinBytes<T>();

// std::tie for a field list with Varint, Values or If fields, which it
// holds by value.
template <typename... F>
auto Tie(F&&... fields) {
  return std::tuple<F...>(std::forward<F>(fields)...);
}

template <typename T>
void Put(Writer* w, const T& v);

template <typename... F>
void PutFields(Writer* w, const std::tuple<F...>& fields) {
  std::apply([w](const auto&... f) { (Put(w, f), ...); }, fields);
}

template <typename T>
void Put(Writer* w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w->PutBool(v);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    w->PutU32(v);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    w->PutU64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w->PutDouble(v);
  } else if constexpr (std::is_same_v<T, int>) {
    w->PutVarint(static_cast<uint64_t>(v));
  } else if constexpr (kIs<T, VarintField>) {
    w->PutVarint(v.value);
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(std::is_same_v<std::underlying_type_t<T>, uint8_t>);
    w->PutU8(static_cast<uint8_t>(v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    w->PutString(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w->PutBytes(v);
  } else if constexpr (kIs<T, std::optional>) {
    w->PutBool(v.has_value());
    if (v.has_value()) Put(w, *v);
  } else if constexpr (std::is_same_v<T, FlatSet64>) {
    std::vector<uint64_t> keys = v.Keys();
    std::sort(keys.begin(), keys.end());
    Put(w, keys);
  } else if constexpr (kIs<T, std::vector> || kIs<T, std::map> ||
                       kIs<T, std::set>) {
    w->PutVarint(v.size());
    for (const auto& e : v) Put(w, e);  // a map entry is a pair
  } else if constexpr (kIs<T, std::pair>) {
    Put(w, v.first);
    Put(w, v.second);
  } else if constexpr (kIs<T, MapValues>) {
    w->PutVarint(v.map.size());
    for (const auto& entry : v.map) Put(w, entry.second);
  } else if constexpr (kIs<T, Guarded>) {
    if (v.flag) Put(w, v.value);
  } else if constexpr (Record<T>) {
    PutFields(w, T::Fields(v));
  } else {
    v.Serialize(w);
  }
}

namespace internal {

template <typename T>
Status Assign(Result<T> got, T* out) {
  if (!got.ok()) return got.status();
  *out = std::move(*got);
  return Status::OK();
}

template <typename T>
Status GetField(Reader* r, T* out);

// std::map, std::set and FlatSet64: a count, then strictly ascending keys
// (each followed by its value in a map).
template <typename T>
Status GetKeyed(Reader* r, T* out) {
  using Key = typename T::key_type;
  auto n = r->GetVarint();
  if (!n.ok()) return n.status();
  EDGELET_RETURN_NOT_OK(r->CheckCount(*n, kMinBytes<Key>));
  T got;
  Key prev{};
  for (uint64_t i = 0; i < *n; ++i) {
    Key key{};
    EDGELET_RETURN_NOT_OK(GetField(r, &key));
    if (i > 0 && !(prev < key)) {
      return Status::Corruption("keys not strictly ascending");
    }
    prev = key;
    if constexpr (kIs<T, std::map>) {
      typename T::mapped_type value;
      EDGELET_RETURN_NOT_OK(GetField(r, &value));
      got.emplace_hint(got.end(), std::move(key), std::move(value));
    } else if constexpr (kIs<T, std::set>) {
      got.emplace_hint(got.end(), std::move(key));
    } else {
      got.Insert(key);
    }
  }
  *out = std::move(got);
  return Status::OK();
}

// Values(map, key_of): a count, then values whose rebuilt keys are
// strictly ascending.
template <typename Map, typename KeyOf>
Status GetValues(Reader* r, MapValues<Map, KeyOf>* out) {
  using Value = typename Map::mapped_type;
  auto n = r->GetVarint();
  if (!n.ok()) return n.status();
  EDGELET_RETURN_NOT_OK(r->CheckCount(*n, kMinBytes<Value>));
  Map got;
  for (uint64_t i = 0; i < *n; ++i) {
    Value value;
    EDGELET_RETURN_NOT_OK(GetField(r, &value));
    auto key = out->key_of(value);
    if (!got.empty() && !(got.rbegin()->first < key)) {
      return Status::Corruption("keys not strictly ascending");
    }
    got.emplace_hint(got.end(), std::move(key), std::move(value));
  }
  out->map = std::move(got);
  return Status::OK();
}

template <typename T>
Status GetField(Reader* r, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    return Assign(r->GetBool(), out);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    return Assign(r->GetU32(), out);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    return Assign(r->GetU64(), out);
  } else if constexpr (std::is_same_v<T, double>) {
    return Assign(r->GetDouble(), out);
  } else if constexpr (kIs<T, VarintField>) {
    auto v = r->GetVarint();
    if (!v.ok()) return v.status();
    out->value = *v;
    return Status::OK();
  } else if constexpr (std::is_same_v<T, int>) {
    auto v = r->GetVarint();
    if (!v.ok()) return v.status();
    if (*v > static_cast<uint64_t>(INT_MAX)) {
      return Status::Corruption("int " + std::to_string(*v) +
                                " above INT_MAX");
    }
    *out = static_cast<int>(*v);
    return Status::OK();
  } else if constexpr (std::is_enum_v<T>) {
    auto tag = r->GetU8();
    if (!tag.ok()) return tag.status();
    if (*tag > static_cast<uint8_t>(WireLastTag(T{}))) {
      return Status::Corruption("enum tag " + std::to_string(*tag) +
                                " out of range");
    }
    *out = static_cast<T>(*tag);
    return Status::OK();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Assign(r->GetString(), out);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    return Assign(r->GetBytes(), out);
  } else if constexpr (kIs<T, std::optional>) {
    auto has = r->GetBool();
    if (!has.ok()) return has.status();
    if (!*has) {
      out->reset();
      return Status::OK();
    }
    return GetField(r, &out->emplace());
  } else if constexpr (kIs<T, std::vector>) {
    auto n = r->GetVarint();
    if (!n.ok()) return n.status();
    EDGELET_RETURN_NOT_OK(
        r->CheckCount(*n, kMinBytes<typename T::value_type>));
    out->clear();
    out->reserve(*n);
    for (uint64_t i = 0; i < *n; ++i) {
      EDGELET_RETURN_NOT_OK(GetField(r, &out->emplace_back()));
    }
    return Status::OK();
  } else if constexpr (kIs<T, std::pair>) {
    EDGELET_RETURN_NOT_OK(GetField(r, &out->first));
    return GetField(r, &out->second);
  } else if constexpr (kIs<T, std::map> || kIs<T, std::set> ||
                       std::is_same_v<T, FlatSet64>) {
    return GetKeyed(r, out);
  } else if constexpr (kIs<T, MapValues>) {
    return GetValues(r, out);
  } else if constexpr (kIs<T, Guarded>) {
    return out->flag ? GetField(r, &out->value) : Status::OK();
  } else if constexpr (Record<T>) {
    Status st;
    auto fields = T::Fields(*out);
    std::apply([&](auto&... f) { ((st = GetField(r, &f)).ok() && ...); },
               fields);
    if constexpr (requires { out->FinishDecode(); }) {
      if (st.ok()) st = out->FinishDecode();
    }
    return st;
  } else {
    return Assign(T::Deserialize(r), out);
  }
}

}  // namespace internal

template <typename T>
Status Get(Reader* r, T* out) {
  Status st = internal::GetField(r, out);
  if (st.ok() || st.code() == StatusCode::kCorruption) return st;
  return Status::Corruption(st.message());
}

template <typename T>
Result<T> Read(Reader* r) {
  T out;
  EDGELET_RETURN_NOT_OK(Get(r, &out));
  return out;
}

template <Record T>
Bytes Encode(const T& m) {
  Writer w;
  Put(&w, m);
  return w.Take();
}

template <Record T>
Result<T> Decode(const Bytes& b) {
  Reader r(b);
  return Read<T>(&r);
}

}  // namespace wire

}  // namespace edgelet

#endif  // EDGELET_COMMON_SERIALIZE_H_
