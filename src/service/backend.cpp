#include "service/backend.hpp"

#include <stdexcept>
#include <utility>

#include "support/json.hpp"

namespace sts {

namespace {

/// One cumulative counter of ServiceStats: its stats_json() wire key, its
/// run in the document, and where it lives in the struct.
struct Counter {
  const char* key;
  CounterGroup group;
  std::uint64_t& (*field)(ServiceStats&);

  [[nodiscard]] std::uint64_t read(const ServiceStats& stats) const {
    // The accessor only forms a reference; reading through it leaves `stats`
    // untouched.
    return field(const_cast<ServiceStats&>(stats));
  }
};

using enum CounterGroup;

/// Every counter, once. Accumulating, parsing and both renderers loop over
/// this table, so the wire format round-trips by construction.
constexpr Counter kCounters[] = {
    {"submitted", kJobs, [](auto& s) -> auto& { return s.submitted; }},
    {"completed", kJobs, [](auto& s) -> auto& { return s.completed; }},
    {"failed", kJobs, [](auto& s) -> auto& { return s.failed; }},
    {"rejected", kJobs, [](auto& s) -> auto& { return s.rejected; }},
    {"simulated", kJobs, [](auto& s) -> auto& { return s.simulated; }},
    {"fast_path_hits", kJobs, [](auto& s) -> auto& { return s.fast_path_hits; }},
    {"cache_hits", kResultCache, [](auto& s) -> auto& { return s.cache.hits; }},
    {"cache_misses", kResultCache, [](auto& s) -> auto& { return s.cache.misses; }},
    {"cache_races", kResultCache, [](auto& s) -> auto& { return s.cache.races; }},
    {"cache_evictions", kResultCache, [](auto& s) -> auto& { return s.cache.evictions; }},
    {"cache_evicted_weight", kResultCache, [](auto& s) -> auto& { return s.cache.evicted_weight; }},
    {"cache_expired", kResultCache, [](auto& s) -> auto& { return s.cache.expired; }},
    {"partition_hits", kFragments, [](auto& s) -> auto& { return s.subgraph.partition_hits; }},
    {"partition_misses", kFragments, [](auto& s) -> auto& { return s.subgraph.partition_misses; }},
    {"fragments_assembled", kFragments,
     [](auto& s) -> auto& { return s.subgraph.fragments_assembled; }},
    {"delta_invalidated", kFragments,
     [](auto& s) -> auto& { return s.subgraph.delta_invalidated; }},
    {"canon_hits", kFragments, [](auto& s) -> auto& { return s.canon.hits; }},
    {"canon_misses", kFragments, [](auto& s) -> auto& { return s.canon.misses; }},
};

}  // namespace

void accumulate_service_stats(ServiceStats& into, const ServiceStats& from) {
  for (const Counter& counter : kCounters) counter.field(into) += counter.read(from);
  into.shard_max_depth.insert(into.shard_max_depth.end(), from.shard_max_depth.begin(),
                              from.shard_max_depth.end());
}

void append_stats_json_counters(std::string& json, const ServiceStats& stats,
                                CounterGroup group) {
  for (const Counter& counter : kCounters) {
    if (counter.group != group) continue;
    json += ", \"";
    json += counter.key;
    json += "\": ";
    json += std::to_string(counter.read(stats));
  }
}

ServiceStats service_stats_from_json(const JsonValue& json) {
  ServiceStats stats;
  for (const Counter& counter : kCounters) {
    const JsonValue* value = json.find(counter.key);
    if (value == nullptr) continue;  // older server: counter not born yet
    const std::int64_t v = value->as_int();
    if (v < 0) {
      throw std::invalid_argument(std::string("stats: negative counter ") + counter.key);
    }
    counter.field(stats) = static_cast<std::uint64_t>(v);
  }
  if (const JsonValue* depths = json.find("shard_max_depth")) {
    stats.shard_max_depth.reserve(depths->items().size());
    for (const JsonValue& depth : depths->items()) {
      const std::int64_t d = depth.as_int();
      if (d < 0) throw std::invalid_argument("stats: negative shard_max_depth entry");
      stats.shard_max_depth.push_back(static_cast<std::size_t>(d));
    }
  }
  return stats;
}

std::shared_ptr<const ScheduleResult> ServiceFuture::get() {
  Settled settled = settled_.get();
  if (settled.rejected.has_value()) {
    throw std::runtime_error("schedule request rejected on shard " +
                             std::to_string(settled.rejected->shard) + " (depth " +
                             std::to_string(settled.rejected->depth) + "/" +
                             std::to_string(settled.rejected->limit) + ")");
  }
  if (settled.error.empty()) return std::move(settled.result);
  if (settled.invalid) throw std::invalid_argument(settled.error);
  throw std::runtime_error(settled.error);
}

ScheduleResponse ServiceAdmission::wait() {
  ScheduleResponse response;
  if (rejected.has_value()) {
    response.status = ScheduleResponse::Status::kRejected;
    response.rejected = rejected;
    return response;
  }
  Settled settled = future.settled();
  if (settled.rejected.has_value()) {
    response.status = ScheduleResponse::Status::kRejected;
    response.rejected = std::move(settled.rejected);
  } else if (settled.error.empty()) {
    response.result = std::move(settled.result);
    response.status = ScheduleResponse::Status::kOk;
  } else {
    response.status = ScheduleResponse::Status::kError;
    response.error = std::move(settled.error);
  }
  return response;
}

ScheduleResponse ScheduleBackend::schedule(ScheduleRequest request) {
  return submit(std::move(request)).wait();
}

}  // namespace sts
