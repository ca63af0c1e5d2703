#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

namespace sts {

/// Bounded, weight-aware least-recently-used map: the one LRU behind every
/// cache of the serving stack (ScheduleCache, SubgraphCache,
/// PartitionCanonMemo and ScheduleService's base registry).
///
/// - Buckets are picked by a 64-bit hash the caller supplies, so a key of
///   megabytes is never hashed again here; the hash only has to spread.
/// - Probes compare the full key, `entry.key == probe`, where the probe type
///   may differ from `Key` (a string_view against a string, a tuple of
///   references against a tuple of strings), so a collision is a miss, never
///   a wrong answer, and a probe copies nothing.
/// - `capacity` bounds the total weight. A weight of 0 counts as 1, so every
///   entry occupies capacity; an entry heavier than the whole capacity is
///   refused instead of churning out every resident.
/// - A hit splices its entry to the front in O(1) and allocates nothing.
///
/// Not synchronized: each owner guards its instance with its own mutex.
template <typename Key, typename Value>
class WeightedLru {
 public:
  struct Entry {
    std::uint64_t hash = 0;
    Key key;
    Value value;
    std::size_t weight = 1;
  };
  /// Entries pushed out by an insert, handed back so the caller can count
  /// them and free them where it chooses (say, after releasing its lock).
  using Evicted = std::list<Entry>;

  explicit WeightedLru(std::size_t capacity) : capacity_(capacity) {}

  /// The value under `probe`, moved to the front; nullptr if absent.
  template <typename Probe>
  [[nodiscard]] Value* find(std::uint64_t hash, const Probe& probe) {
    const auto slot = locate(hash, probe);
    if (slot == buckets_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, slot->second);
    return &slot->second->value;
  }

  /// As find(), without touching recency.
  template <typename Probe>
  [[nodiscard]] const Value* peek(std::uint64_t hash, const Probe& probe) const {
    const auto slot = locate(hash, probe);
    return slot == buckets_.end() ? nullptr : &slot->second->value;
  }

  /// Insert-if-absent. If an entry equal to `key` is resident it moves to the
  /// front and is returned, and `key` and `value` are left untouched, as by
  /// try_emplace. So is an entry heavier than the capacity, which is refused:
  /// the result is nullptr. Otherwise the entry is moved in at the front and
  /// least-recently-used entries past the weight bound are spliced onto the
  /// back of `evicted`.
  Value* insert(std::uint64_t hash, Key&& key, Value&& value, std::size_t weight,
                Evicted& evicted) {
    if (Value* resident = find(hash, key)) return resident;
    weight = std::max<std::size_t>(weight, 1);
    if (weight > capacity_) return nullptr;
    entries_.push_front(Entry{hash, std::move(key), std::move(value), weight});
    buckets_.emplace(hash, entries_.begin());
    weight_ += weight;
    while (weight_ > capacity_) {
      const auto victim = std::prev(entries_.end());
      auto slot = buckets_.equal_range(victim->hash).first;
      while (slot->second != victim) ++slot;
      evicted.splice(evicted.end(), entries_, unlink(slot));
    }
    return &entries_.front().value;
  }

  /// Drops the entry under `probe`, if resident.
  template <typename Probe>
  void erase(std::uint64_t hash, const Probe& probe) {
    const auto slot = locate(hash, probe);
    if (slot != buckets_.end()) entries_.erase(unlink(slot));
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t weight() const noexcept { return weight_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Resident entries, most recently used first.
  [[nodiscard]] auto begin() const noexcept { return entries_.cbegin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.cend(); }

 private:
  using List = std::list<Entry>;
  using Buckets = std::unordered_multimap<std::uint64_t, typename List::iterator>;

  template <typename Probe>
  [[nodiscard]] typename Buckets::const_iterator locate(std::uint64_t hash,
                                                        const Probe& probe) const {
    auto [slot, last] = buckets_.equal_range(hash);
    for (; slot != last; ++slot) {
      if (slot->second->key == probe) return slot;
    }
    return buckets_.end();
  }

  /// Removes an entry's bucket slot and weight; returns its list node.
  typename List::iterator unlink(typename Buckets::const_iterator slot) {
    const auto it = slot->second;
    weight_ -= it->weight;
    buckets_.erase(slot);
    return it;
  }

  const std::size_t capacity_;
  List entries_;  ///< front = most recently used
  Buckets buckets_;
  std::size_t weight_ = 0;  ///< Σ entry weight, <= capacity_ between calls
};

}  // namespace sts
