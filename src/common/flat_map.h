#ifndef REDY_COMMON_FLAT_MAP_H_
#define REDY_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/random.h"

namespace redy::common {

/// Open-addressed hash map keyed by uint64_t, built for the data-path
/// bookkeeping that used to live in std::unordered_map: per-wr-id
/// in-flight op records, per-VM health counters, per-link busy counts.
/// unordered_map costs a node allocation per insert and a pointer chase
/// per lookup; FlatMap probes a contiguous power-of-two slot array
/// linearly from SplitMix64(key).
///
/// Layout is struct-of-arrays: a dense 16-byte header per slot (key,
/// cached probe distance, used flag) probed separately from the value
/// array. Probing and chain maintenance touch only the header array —
/// small enough to stay cache-resident even for thousands of in-flight
/// ops — and the value array is touched once per operation.
///
/// Deletion is tombstone-free backward-shift: erasing a key scans the
/// probe chain after it and moves every entry whose chain passes
/// through the hole one slot back, so chains never accumulate dead
/// slots and lookups stay O(chain) forever (DESIGN.md §10). The cached
/// probe distance makes the shift test one integer compare instead of
/// a hash recompute. The common complete-an-op pattern (find, consume,
/// erase) is a single probe via Take(). Values need only be movable;
/// the table grows at 70% load like faster::HashIndex.
///
/// Not iteration-order compatible with unordered_map: traversal visits
/// slot (hash) order. Call sites that fan out rng draws or event posts
/// over the entries must impose their own deterministic order (the
/// client sorts by wr-id before failing in-flight ops).
template <typename V>
class FlatMap {
 public:
  explicit FlatMap(size_t min_capacity = 16) {
    size_t cap = 16;
    while (cap < min_capacity) cap <<= 1;
    hdrs_.resize(cap);
    vals_.resize(cap);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return hdrs_.size(); }

  /// Pointer to the value for `key`, or nullptr. Valid until the next
  /// insert/erase.
  V* Find(uint64_t key) {
    const size_t mask = hdrs_.size() - 1;
    size_t i = SplitMix64(key) & mask;
    while (hdrs_[i].used) {
      if (hdrs_[i].key == key) return &vals_[i];
      i = (i + 1) & mask;
    }
    return nullptr;
  }
  const V* Find(uint64_t key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  /// Value for `key`, default-constructed and inserted if absent.
  V& operator[](uint64_t key) {
    MaybeGrow();
    const size_t mask = hdrs_.size() - 1;
    uint32_t dist = 0;
    size_t i = SplitMix64(key) & mask;
    while (hdrs_[i].used) {
      if (hdrs_[i].key == key) return vals_[i];
      i = (i + 1) & mask;
      dist++;
    }
    return Place(i, key, dist, V{});
  }

  /// Inserts or overwrites; returns the stored value.
  template <typename U>
  V& Insert(uint64_t key, U&& value) {
    MaybeGrow();
    const size_t mask = hdrs_.size() - 1;
    uint32_t dist = 0;
    size_t i = SplitMix64(key) & mask;
    while (hdrs_[i].used) {
      if (hdrs_[i].key == key) {
        vals_[i] = std::forward<U>(value);
        return vals_[i];
      }
      i = (i + 1) & mask;
      dist++;
    }
    return Place(i, key, dist, std::forward<U>(value));
  }

  /// Single-probe find-and-erase: moves the value for `key` into `out`
  /// and removes the entry. Returns whether the key was present. This
  /// is the completion-path idiom (look up the in-flight op by wr-id,
  /// consume it, drop it) without the second probe an Erase after Find
  /// would cost.
  bool Take(uint64_t key, V* out) {
    const size_t mask = hdrs_.size() - 1;
    size_t i = SplitMix64(key) & mask;
    while (true) {
      if (!hdrs_[i].used) return false;
      if (hdrs_[i].key == key) break;
      i = (i + 1) & mask;
    }
    *out = std::move(vals_[i]);
    RemoveAt(i, mask);
    return true;
  }

  /// Erases `key` with backward-shift deletion; returns whether the key
  /// was present.
  bool Erase(uint64_t key) {
    const size_t mask = hdrs_.size() - 1;
    size_t i = SplitMix64(key) & mask;
    while (true) {
      if (!hdrs_[i].used) return false;
      if (hdrs_[i].key == key) break;
      i = (i + 1) & mask;
    }
    RemoveAt(i, mask);
    return true;
  }

  void Clear() {
    for (size_t i = 0; i < hdrs_.size(); i++) {
      if (hdrs_[i].used) {
        hdrs_[i].used = 0;
        vals_[i] = V{};
      }
    }
    size_ = 0;
  }

  /// Grows (never shrinks) so `n` entries fit under the load factor
  /// without rehashing.
  void Reserve(size_t n) {
    size_t cap = hdrs_.size();
    while (n * 10 >= cap * 7) cap <<= 1;
    if (cap != hdrs_.size()) Rehash(cap);
  }

  /// Visits every entry as fn(key, value) in slot order. The table must
  /// not be mutated during the visit.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < hdrs_.size(); i++) {
      if (hdrs_[i].used) fn(hdrs_[i].key, vals_[i]);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < hdrs_.size(); i++) {
      if (hdrs_[i].used) fn(hdrs_[i].key, vals_[i]);
    }
  }

 private:
  struct Hdr {
    uint64_t key = 0;
    /// Probe distance from the ideal slot (cached so backward-shift
    /// deletion never recomputes SplitMix64 over the chain).
    uint32_t dist = 0;
    uint32_t used = 0;
  };

  template <typename U>
  V& Place(size_t i, uint64_t key, uint32_t dist, U&& value) {
    hdrs_[i].key = key;
    hdrs_[i].dist = dist;
    hdrs_[i].used = 1;
    vals_[i] = std::forward<U>(value);
    size_++;
    return vals_[i];
  }

  /// Backward-shift deletion starting from the hole at `i`: an entry at
  /// slot j shifts into the hole iff its probe chain passes through it,
  /// i.e. its cached distance covers the cyclic gap (j - i).
  void RemoveAt(size_t i, size_t mask) {
    size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (!hdrs_[j].used) break;
      const uint32_t gap = static_cast<uint32_t>((j - i) & mask);
      if (hdrs_[j].dist >= gap) {
        hdrs_[i].key = hdrs_[j].key;
        hdrs_[i].dist = hdrs_[j].dist - gap;
        vals_[i] = std::move(vals_[j]);
        i = j;
      }
    }
    hdrs_[i].used = 0;
    if constexpr (!std::is_trivially_destructible_v<V>) {
      vals_[i] = V{};  // release resources of movable values
    }
    size_--;
  }

  void MaybeGrow() {
    if ((size_ + 1) * 10 >= hdrs_.size() * 7) Rehash(hdrs_.size() * 2);
  }

  void Rehash(size_t new_cap) {
    std::vector<Hdr> old_hdrs = std::move(hdrs_);
    std::vector<V> old_vals = std::move(vals_);
    hdrs_.clear();
    hdrs_.resize(new_cap);
    vals_.clear();
    vals_.resize(new_cap);
    const size_t mask = new_cap - 1;
    for (size_t s = 0; s < old_hdrs.size(); s++) {
      if (!old_hdrs[s].used) continue;
      uint32_t dist = 0;
      size_t i = SplitMix64(old_hdrs[s].key) & mask;
      while (hdrs_[i].used) {
        i = (i + 1) & mask;
        dist++;
      }
      hdrs_[i].key = old_hdrs[s].key;
      hdrs_[i].dist = dist;
      hdrs_[i].used = 1;
      vals_[i] = std::move(old_vals[s]);
    }
  }

  std::vector<Hdr> hdrs_;
  std::vector<V> vals_;
  size_t size_ = 0;
};

}  // namespace redy::common
#endif  // REDY_COMMON_FLAT_MAP_H_
