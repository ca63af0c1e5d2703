// WeightedLru, the one bounded LRU behind ScheduleCache, SubgraphCache,
// PartitionCanonMemo and the service's base registry: the weight bound,
// admission refusal, recency order, insert-if-absent, evicted entries handed
// back, and full-key disambiguation under the caller's hash.

#include "support/weighted_lru.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "support/hash.hpp"

namespace sts {
namespace {

using Lru = WeightedLru<std::string, int>;

/// Inserts under fnv1a64(key), the way the caches bucket their keys.
int* put(Lru& lru, std::string key, int value, std::size_t weight, Lru::Evicted& evicted) {
  const std::uint64_t hash = fnv1a64(key);
  return lru.insert(hash, std::move(key), std::move(value), weight, evicted);
}

bool has(const Lru& lru, std::string_view key) {
  return lru.peek(fnv1a64(key), key) != nullptr;
}

/// Resident keys, most recently used first.
std::vector<std::string> order(const Lru& lru) {
  std::vector<std::string> keys;
  for (const Lru::Entry& entry : lru) keys.push_back(entry.key);
  return keys;
}

TEST(WeightedLru, EvictsLeastRecentlyUsedPastTheWeightBound) {
  Lru lru(10);
  Lru::Evicted evicted;
  ASSERT_NE(put(lru, "a", 1, 4, evicted), nullptr);
  ASSERT_NE(put(lru, "b", 2, 4, evicted), nullptr);
  EXPECT_EQ(lru.weight(), 8u);
  EXPECT_TRUE(evicted.empty());

  // 8 + 3 > 10: the least recently used entry ("a") goes.
  ASSERT_NE(put(lru, "c", 3, 3, evicted), nullptr);
  EXPECT_EQ(lru.weight(), 7u);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_FALSE(has(lru, "a"));
  EXPECT_TRUE(has(lru, "b"));
  EXPECT_TRUE(has(lru, "c"));
  EXPECT_LE(lru.weight(), lru.capacity());
}

TEST(WeightedLru, ZeroWeightStillOccupiesCapacity) {
  Lru lru(2);
  Lru::Evicted evicted;
  (void)put(lru, "z1", 1, 0, evicted);
  (void)put(lru, "z2", 2, 0, evicted);
  EXPECT_EQ(lru.weight(), 2u);
  (void)put(lru, "z3", 3, 0, evicted);
  EXPECT_EQ(lru.size(), 2u) << "a weight of 0 counts as 1";
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted.front().key, "z1");
  EXPECT_EQ(evicted.front().weight, 1u);
}

TEST(WeightedLru, RefusesAnEntryHeavierThanTheCapacity) {
  Lru lru(5);
  Lru::Evicted evicted;
  (void)put(lru, "small", 1, 2, evicted);
  std::string key = "big";
  int value = 7;
  EXPECT_EQ(lru.insert(fnv1a64(key), std::move(key), std::move(value), 6, evicted), nullptr);
  EXPECT_EQ(key, "big") << "a refused key is left with the caller";
  EXPECT_FALSE(has(lru, "big"));
  EXPECT_TRUE(has(lru, "small")) << "refusal spares the residents";
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(lru.weight(), 2u);

  Lru none(0);
  EXPECT_EQ(put(none, "k", 1, 1, evicted), nullptr) << "capacity 0 holds nothing";
  EXPECT_EQ(none.size(), 0u);
}

TEST(WeightedLru, FindBumpsRecencyAndPeekDoesNot) {
  Lru lru(3);
  Lru::Evicted evicted;
  for (const char* key : {"a", "b", "c"}) (void)put(lru, key, 0, 1, evicted);
  EXPECT_EQ(order(lru), (std::vector<std::string>{"c", "b", "a"}));

  ASSERT_NE(lru.peek(fnv1a64("a"), std::string_view("a")), nullptr);
  EXPECT_EQ(order(lru), (std::vector<std::string>{"c", "b", "a"}));

  ASSERT_NE(lru.find(fnv1a64("a"), std::string_view("a")), nullptr);
  EXPECT_EQ(order(lru), (std::vector<std::string>{"a", "c", "b"}));

  (void)put(lru, "d", 0, 1, evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted.front().key, "b") << "b was least recently used";
  EXPECT_EQ(lru.find(fnv1a64("b"), std::string_view("b")), nullptr);
}

TEST(WeightedLru, InsertIfAbsentReturnsTheResidentEntry) {
  Lru lru(4);
  Lru::Evicted evicted;
  int* first = put(lru, "k", 1, 1, evicted);
  (void)put(lru, "other", 2, 1, evicted);
  std::string key = "k";
  int value = 2;
  int* again = lru.insert(fnv1a64(key), std::move(key), std::move(value), 3, evicted);
  EXPECT_EQ(again, first);
  EXPECT_EQ(*again, 1) << "the resident value stands";
  EXPECT_EQ(key, "k") << "the caller's key is not consumed";
  EXPECT_EQ(value, 2) << "the caller's value is not consumed";
  EXPECT_EQ(lru.weight(), 2u) << "the second weight is not charged";
  EXPECT_EQ(order(lru).front(), "k") << "the resident entry is refreshed";
}

TEST(WeightedLru, EvictedEntriesComeBackWithTheirValues) {
  using Owned = WeightedLru<std::string, std::shared_ptr<int>>;
  Owned lru(3);
  Owned::Evicted evicted;
  const auto value = std::make_shared<int>(42);
  (void)lru.insert(1, std::string("a"), std::shared_ptr<int>(value), 1, evicted);
  (void)lru.insert(2, std::string("b"), std::make_shared<int>(1), 1, evicted);
  (void)lru.insert(3, std::string("c"), std::make_shared<int>(2), 3, evicted);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted.front().key, "a") << "oldest first";
  EXPECT_EQ(evicted.front().hash, 1u);
  EXPECT_EQ(evicted.front().value, value) << "the caller decides when it is freed";
  EXPECT_EQ(evicted.back().key, "b");
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.weight(), 3u);

  lru.erase(3, std::string_view("c"));
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.weight(), 0u);
}

TEST(WeightedLru, FullKeyDisambiguatesAForcedHashCollision) {
  // Every key under the caller's hash 7: only the full-key compare tells
  // them apart.
  Lru lru(8);
  Lru::Evicted evicted;
  constexpr std::uint64_t kHash = 7;
  (void)lru.insert(kHash, std::string("x"), 1, 1, evicted);
  (void)lru.insert(kHash, std::string("y"), 2, 1, evicted);
  (void)lru.insert(kHash, std::string("z"), 3, 1, evicted);
  ASSERT_EQ(lru.size(), 3u);
  EXPECT_EQ(*lru.find(kHash, std::string_view("x")), 1);
  EXPECT_EQ(*lru.find(kHash, std::string_view("y")), 2);
  EXPECT_EQ(*lru.find(kHash, std::string_view("z")), 3);
  EXPECT_EQ(lru.find(kHash, std::string_view("w")), nullptr);
  EXPECT_EQ(lru.find(fnv1a64("x"), std::string_view("x")), nullptr)
      << "an entry is found only under the hash it was inserted with";

  lru.erase(kHash, std::string_view("y"));
  EXPECT_EQ(lru.find(kHash, std::string_view("y")), nullptr);
  EXPECT_EQ(*lru.find(kHash, std::string_view("x")), 1);
  EXPECT_EQ(*lru.find(kHash, std::string_view("z")), 3);

  // Evicting one colliding entry leaves the others findable.
  Lru small(2);
  (void)small.insert(kHash, std::string("p"), 1, 1, evicted);
  (void)small.insert(kHash, std::string("q"), 2, 1, evicted);
  (void)small.insert(kHash, std::string("r"), 3, 1, evicted);
  EXPECT_EQ(small.find(kHash, std::string_view("p")), nullptr);
  EXPECT_EQ(*small.find(kHash, std::string_view("q")), 2);
  EXPECT_EQ(*small.find(kHash, std::string_view("r")), 3);
}

TEST(WeightedLru, ProbeTypeMayDifferFromTheStoredKey) {
  // The SubgraphCache shape: a (context, form) tuple probed by references,
  // without building a key.
  using Pair = WeightedLru<std::tuple<std::string, std::string>, int>;
  Pair lru(4);
  Pair::Evicted evicted;
  (void)lru.insert(5, {"ctx", "form-a"}, 1, 1, evicted);
  (void)lru.insert(5, {"ctx", "form-b"}, 2, 1, evicted);
  const std::string context = "ctx";
  const std::string form = "form-b";
  const std::string other = "form-c";
  ASSERT_NE(lru.find(5, std::tie(context, form)), nullptr);
  EXPECT_EQ(*lru.find(5, std::tie(context, form)), 2);
  EXPECT_EQ(lru.find(5, std::tie(context, other)), nullptr);
}

}  // namespace
}  // namespace sts
