// The stats wire format round-trips through the one counter table in
// service/backend.cpp: every ServiceStats counter is rendered, parsed back
// and accumulated, and the service and router documents keep their key sets
// (and, for the service, their exact bytes).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/backend.hpp"
#include "service/schedule_service.hpp"
#include "service/shard_router.hpp"
#include "support/json.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

/// Every counter set to a distinct value, so a swapped or dropped counter
/// shows.
ServiceStats distinct_stats() {
  ServiceStats s;
  s.submitted = 1;
  s.completed = 2;
  s.failed = 3;
  s.rejected = 4;
  s.simulated = 5;
  s.fast_path_hits = 6;
  s.cache.hits = 7;
  s.cache.misses = 8;
  s.cache.races = 9;
  s.cache.evictions = 10;
  s.cache.evicted_weight = 11;
  s.cache.expired = 12;
  s.subgraph.partition_hits = 13;
  s.subgraph.partition_misses = 14;
  s.subgraph.fragments_assembled = 15;
  s.subgraph.delta_invalidated = 16;
  s.canon.hits = 17;
  s.canon.misses = 18;
  s.shard_max_depth = {19, 20};
  return s;
}

/// The counters of `s` in struct order, for whole-struct comparisons.
std::vector<std::uint64_t> counters_of(const ServiceStats& s) {
  return {s.submitted,
          s.completed,
          s.failed,
          s.rejected,
          s.simulated,
          s.fast_path_hits,
          s.cache.hits,
          s.cache.misses,
          s.cache.races,
          s.cache.evictions,
          s.cache.evicted_weight,
          s.cache.expired,
          s.subgraph.partition_hits,
          s.subgraph.partition_misses,
          s.subgraph.fragments_assembled,
          s.subgraph.delta_invalidated,
          s.canon.hits,
          s.canon.misses};
}

std::vector<std::string> keys_of(const std::string& json) {
  const JsonValue document = parse_json(json);
  std::vector<std::string> keys;
  for (const JsonValue::Member& member : document.members()) {
    keys.push_back(member.first);
  }
  return keys;
}

TEST(ServiceStatsTable, RenderParseRoundTripsEveryCounter) {
  const ServiceStats s = distinct_stats();
  const std::string json = ScheduleService::render_stats_json(s, 21, 22, 23, 24, 25, 0.5);
  const ServiceStats parsed = service_stats_from_json(parse_json(json));
  EXPECT_EQ(counters_of(parsed), counters_of(s)) << json;
  EXPECT_EQ(parsed.shard_max_depth, s.shard_max_depth);
}

TEST(ServiceStatsTable, AccumulateDoublesEveryCounter) {
  const ServiceStats s = distinct_stats();
  ServiceStats doubled = s;
  accumulate_service_stats(doubled, s);
  std::vector<std::uint64_t> expected = counters_of(s);
  for (std::uint64_t& value : expected) value *= 2;
  EXPECT_EQ(counters_of(doubled), expected);
  EXPECT_EQ(doubled.shard_max_depth, (std::vector<std::size_t>{19, 20, 19, 20}))
      << "shard high-water marks concatenate";
}

TEST(ServiceStatsTable, ServiceDocumentKeepsItsBytes) {
  // Byte for byte, key order included: scrapers may read the document as text.
  const std::string expected =
      "{\"schema_version\": 2, \"uptime_seconds\": 0.5, \"submitted\": 1, \"completed\": 2, "
      "\"failed\": 3, \"rejected\": 4, \"simulated\": 5, \"fast_path_hits\": 6, "
      "\"workers\": 21, \"queue_depth_limit\": 22, \"shard_max_depth\": [19, 20], "
      "\"max_queue_depth\": 20, \"cache_hits\": 7, \"cache_misses\": 8, \"cache_races\": 9, "
      "\"cache_evictions\": 10, \"cache_evicted_weight\": 11, \"cache_expired\": 12, "
      "\"cache_size\": 23, \"cache_weight\": 24, \"cache_capacity\": 25, "
      "\"partition_hits\": 13, \"partition_misses\": 14, \"fragments_assembled\": 15, "
      "\"delta_invalidated\": 16, \"canon_hits\": 17, \"canon_misses\": 18}";
  EXPECT_EQ(ScheduleService::render_stats_json(distinct_stats(), 21, 22, 23, 24, 25, 0.5),
            expected);
}

TEST(ServiceStatsTable, RouterDocumentKeepsItsKeysAndTotals) {
  RouterConfig config;
  config.num_backends = 2;
  config.backend.num_workers = 1;
  ShardRouter router(config);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ScheduleRequest request;
    request.graph = make_chain(6, seed);
    request.scheduler = "streaming-rlx";
    request.machine.num_pes = 4;
    ScheduleRequest again = request;
    ASSERT_TRUE(router.schedule(std::move(request)).ok());
    ASSERT_TRUE(router.schedule(std::move(again)).ok());
  }
  router.wait_idle();

  const std::string json = router.stats_json();
  const std::vector<std::string> expected_keys = {
      "schema_version", "uptime_seconds", "backends", "submitted", "completed", "failed",
      "rejected", "simulated", "fast_path_hits", "cache_hits", "cache_misses", "cache_races",
      "cache_evictions", "cache_evicted_weight", "cache_expired", "cache_weight",
      "partition_hits", "partition_misses", "fragments_assembled", "delta_invalidated",
      "canon_hits", "canon_misses", "max_queue_depth", "per_backend"};
  EXPECT_EQ(keys_of(json), expected_keys) << json;

  const JsonValue document = parse_json(json);
  const ServiceStats total = router.stats().total;
  EXPECT_EQ(counters_of(service_stats_from_json(document)), counters_of(total)) << json;
  EXPECT_EQ(total.submitted, 12u);
  EXPECT_EQ(total.submitted, total.completed + total.rejected);
  EXPECT_EQ(total.cache.hits + total.cache.misses + total.cache.races, 12u);
  for (const JsonValue& backend : document.at("per_backend").items()) {
    EXPECT_EQ(backend.at("submitted").as_int(), backend.at("completed").as_int());
  }
}

}  // namespace
}  // namespace sts
