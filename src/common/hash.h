#ifndef EDGELET_COMMON_HASH_H_
#define EDGELET_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace edgelet {

// FNV-1a 64-bit over raw bytes. Used for non-cryptographic hashing
// (partition assignment, hash aggregation). Cryptographic hashing lives in
// crypto/sha256.h.
uint64_t Fnv1a64(const void* data, size_t len);

inline uint64_t Fnv1a64(std::string_view s) {
  return Fnv1a64(s.data(), s.size());
}

// Avalanching finalizer (MurmurHash3 fmix64); turns low-entropy integers
// (sequential ids) into well-distributed hash values.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

// Boost-style combiner.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (Mix64(value) + 0x9E3779B97F4A7C15ULL + (seed << 6) +
                 (seed >> 2));
}

// Open-addressing hash table keyed by uint64: one flat slot array with
// linear probing, a power-of-two capacity (the probe start is a mask, not
// a division) that grows at 3/4 load from a 4-slot floor. Key 0 marks an
// empty slot; an entry under key 0 itself is kept out of line, so every
// uint64 is a valid key. Erase is backward-shift deletion: no tombstones,
// so cyclic insert/erase traffic never degrades the probes, and once the
// table has grown to its working set neither operation allocates.
// Iteration order is unspecified.
//
// Small tables stay small: the 4-slot floor keeps the many few-entry
// tables of a crowd-scale fleet (one per builder) at or below the
// footprint of the node-based std containers they replace.
struct FlatTableNoValue {};

template <typename V>
class FlatTable64 {
 public:
  using key_type = uint64_t;

  size_t size() const { return size_; }

  // The value under `key`, or null.
  const V* Find(uint64_t key) const {
    if (key == 0) return has_zero_ ? &zero_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (size_t i = Mix64(key) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == 0) return nullptr;
    }
  }
  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  // The value under `key`, value-initialized and inserted if absent;
  // `*inserted` reports which. The reference is valid until the next
  // insertion.
  V& FindOrInsert(uint64_t key, bool* inserted) {
    if (key == 0) {
      *inserted = !has_zero_;
      if (!has_zero_) ++size_;
      has_zero_ = true;
      return zero_value_;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.empty() ? 4 : slots_.size() * 2);
    }
    size_t i = Mix64(key) & mask_;
    while (slots_[i].key != 0) {
      if (slots_[i].key == key) {
        *inserted = false;
        return slots_[i].value;
      }
      i = (i + 1) & mask_;
    }
    *inserted = true;
    ++size_;
    slots_[i].key = key;
    return slots_[i].value;
  }

  // Set-style insert: true iff `key` was absent.
  bool Insert(uint64_t key) {
    bool inserted;
    FindOrInsert(key, &inserted);
    return inserted;
  }

  // Removes `key`, moving its value into `*out` first when given; false
  // when absent. Entries that linear probing displaced past the freed slot
  // slide back into it, so every remaining entry stays reachable from its
  // home slot.
  bool Erase(uint64_t key, V* out = nullptr) {
    if (key == 0) {
      if (!has_zero_) return false;
      if (out != nullptr) *out = std::move(zero_value_);
      zero_value_ = V{};
      has_zero_ = false;
      --size_;
      return true;
    }
    if (slots_.empty()) return false;
    size_t hole = Mix64(key) & mask_;
    while (slots_[hole].key != key) {
      if (slots_[hole].key == 0) return false;
      hole = (hole + 1) & mask_;
    }
    if (out != nullptr) *out = std::move(slots_[hole].value);
    for (size_t j = (hole + 1) & mask_; slots_[j].key != 0;
         j = (j + 1) & mask_) {
      // j's entry may fill the hole only if the hole lies on its probe
      // path, i.e. its home slot is no nearer to j than the hole is.
      const size_t home = Mix64(slots_[j].key) & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  // Empties the table and releases its slots.
  void Clear() {
    std::vector<Slot>().swap(slots_);
    mask_ = 0;
    size_ = 0;
    has_zero_ = false;
    zero_value_ = V{};
  }

  // Every key, unordered.
  std::vector<uint64_t> Keys() const {
    std::vector<uint64_t> out;
    out.reserve(size_);
    if (has_zero_) out.push_back(0);
    for (const Slot& s : slots_) {
      if (s.key != 0) out.push_back(s.key);
    }
    return out;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    [[no_unique_address]] V value{};
  };

  // Grows when the pending insertion would pass 3/4 load. Existing
  // entries are re-placed, so slot order (not contents) changes.
  void Rehash(size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    for (Slot& s : old) {
      if (s.key == 0) continue;
      size_t i = Mix64(s.key) & mask_;
      while (slots_[i].key != 0) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;  // entries, including an out-of-line key 0
  bool has_zero_ = false;
  V zero_value_{};
};

using FlatSet64 = FlatTable64<FlatTableNoValue>;

}  // namespace edgelet

#endif  // EDGELET_COMMON_HASH_H_
