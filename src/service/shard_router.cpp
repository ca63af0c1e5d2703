#include "service/shard_router.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "pipeline/schedule_cache.hpp"
#include "support/text.hpp"

namespace sts {

namespace {

bool parse_digest(std::string_view digest, std::uint64_t& hash) {
  if (digest.size() != 16) return false;
  std::uint64_t value = 0;
  for (const char c : digest) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  hash = value;
  return true;
}

/// The 64-bit hash a request routes by. A delta request routes by the digest
/// it names: `key_digest()` is the hex form of key_hash(), i.e. exactly the
/// hash its base request was routed by — so the delta lands on the backend
/// whose base registry holds the graph and whose fragment cache is warm.
/// key() must not be touched on a delta (its graph is not materialized yet;
/// the memo would serve a stale identity). A malformed digest still routes
/// deterministically and fails with "unknown base_key" at the backend.
std::uint64_t routing_hash(const ScheduleRequest& request) {
  if (request.base_key.has_value()) {
    std::uint64_t hash = 0;
    if (parse_digest(*request.base_key, hash)) return hash;
    return fnv1a64(*request.base_key);
  }
  return request.key_hash();
}

}  // namespace

ShardRouter::ShardRouter(RouterConfig config) : config_(std::move(config)) {
  if (config_.num_backends == 0) {
    throw std::invalid_argument("ShardRouter: num_backends must be >= 1");
  }
  if (config_.virtual_nodes == 0) {
    throw std::invalid_argument("ShardRouter: virtual_nodes must be >= 1");
  }
  const ExclusiveLock lock(mutex_);
  backends_.reserve(config_.num_backends);
  for (std::size_t i = 0; i < config_.num_backends; ++i) {
    backends_.push_back(make_backend_locked(i));
  }
  rebuild_ring_locked();
}

std::shared_ptr<ScheduleBackend> ShardRouter::make_backend_locked(std::size_t index) {
  if (config_.backend_factory) {
    std::shared_ptr<ScheduleBackend> backend = config_.backend_factory(index);
    if (!backend) throw std::invalid_argument("ShardRouter: backend_factory returned nullptr");
    return backend;
  }
  return std::make_shared<ScheduleService>(config_.backend);
}

std::vector<std::shared_ptr<ScheduleBackend>> ShardRouter::snapshot_backends() const {
  const SharedLock lock(mutex_);
  return backends_;
}

void ShardRouter::rebuild_ring_locked() {
  ring_.clear();
  ring_.reserve(backends_.size() * config_.virtual_nodes);
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    for (std::size_t v = 0; v < config_.virtual_nodes; ++v) {
      // The point position depends only on (backend index, vnode index), so
      // growing the pool never moves an existing backend's points — the
      // consistent-hashing property the rebalance test pins down.
      std::string point = "backend ";
      append_number(point, b);
      point += " vnode ";
      append_number(point, v);
      ring_.push_back(RingPoint{fnv1a64(point), static_cast<std::uint32_t>(b)});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const RingPoint& a, const RingPoint& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.backend < b.backend;
  });
}

std::size_t ShardRouter::backend_for_hash_locked(std::uint64_t hash) const {
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), hash,
      [](const RingPoint& point, std::uint64_t value) { return point.hash < value; });
  return it != ring_.end() ? it->backend : ring_.front().backend;  // wrap past the top
}

std::size_t ShardRouter::backend_for_key(std::string_view key) const {
  const SharedLock lock(mutex_);
  return backend_for_hash_locked(fnv1a64(key));
}

std::size_t ShardRouter::backend_for(const ScheduleRequest& request) const {
  const SharedLock lock(mutex_);
  return backend_for_hash_locked(routing_hash(request));
}

ServiceAdmission ShardRouter::submit(ScheduleRequest request) {
  // Resolve the route under the shared lock, then release it before the
  // backend call: a submit blocked on backpressure must not pin the router.
  std::shared_ptr<ScheduleBackend> backend;
  std::size_t index = 0;
  {
    const SharedLock lock(mutex_);
    index = backend_for_hash_locked(routing_hash(request));
    backend = backends_[index];
  }
  ServiceAdmission admission = backend->submit(std::move(request));
  if (admission.rejected.has_value()) admission.rejected->backend = index;
  return admission;
}

ScheduleResponse ShardRouter::schedule(ScheduleRequest request) {
  return submit(std::move(request)).wait();
}

std::size_t ShardRouter::backend_count() const {
  const SharedLock lock(mutex_);
  return backends_.size();
}

ScheduleBackend& ShardRouter::backend(std::size_t index) {
  const SharedLock lock(mutex_);
  return *backends_.at(index);
}

ScheduleService& ShardRouter::local_backend(std::size_t index) {
  const SharedLock lock(mutex_);
  auto* service = dynamic_cast<ScheduleService*>(backends_.at(index).get());
  if (service == nullptr) {
    throw std::invalid_argument("ShardRouter: backend " + std::to_string(index) +
                                " is not an in-process ScheduleService");
  }
  return *service;
}

void ShardRouter::set_backend_count(std::size_t count) {
  if (count == 0) throw std::invalid_argument("ShardRouter: num_backends must be >= 1");
  const ExclusiveLock lock(mutex_);
  while (backends_.size() > count) {
    // Retire the highest-index backend: drain it, keep its counters, drop
    // its cache. Its ring points disappear with the rebuild below, and the
    // keys it owned fall through to the neighbors that already owned the
    // rest of their arcs.
    ScheduleBackend& victim = *backends_.back();
    victim.wait_idle();
    accumulate_service_stats(retired_, victim.stats());
    backends_.pop_back();
  }
  while (backends_.size() < count) {
    backends_.push_back(make_backend_locked(backends_.size()));
  }
  config_.num_backends = count;
  rebuild_ring_locked();
}

void ShardRouter::drain(std::size_t index) {
  std::shared_ptr<ScheduleBackend> backend;
  {
    const SharedLock lock(mutex_);
    backend = backends_.at(index);
  }
  backend->wait_idle();  // outside the lock: draining must not block routing
}

void ShardRouter::wait_idle() {
  for (const auto& backend : snapshot_backends()) backend->wait_idle();
}

double ShardRouter::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_).count();
}

ShardRouter::Stats ShardRouter::stats() const {
  Stats out;
  std::vector<std::shared_ptr<ScheduleBackend>> backends;
  {
    const SharedLock lock(mutex_);
    backends = backends_;
    out.total = retired_;
  }
  out.backends.reserve(backends.size());
  for (const auto& backend : backends) {
    out.backends.push_back(backend->stats());
    accumulate_service_stats(out.total, out.backends.back());
  }
  return out;
}

std::string ShardRouter::stats_json() const {
  // One stats_snapshot() per backend feeds both the per-backend records and
  // the aggregate, so the emitted totals always equal the sum of the
  // per_backend objects in the same document (for a remote backend the
  // snapshot is a single /stats fetch).
  std::vector<std::shared_ptr<ScheduleBackend>> backends;
  ServiceStats total;
  {
    const SharedLock lock(mutex_);
    backends = backends_;
    total = retired_;
  }
  const std::size_t live = backends.size();
  std::vector<std::string> per_backend;
  per_backend.reserve(live);
  std::size_t cache_weight = 0;  // live backends' resident cache weight
  for (const auto& backend : backends) {
    ScheduleBackend::Snapshot snapshot = backend->stats_snapshot();
    accumulate_service_stats(total, snapshot.stats);
    cache_weight += snapshot.cache_weight;
    per_backend.push_back(std::move(snapshot.json));
  }
  const ServiceStats& s = total;
  const auto field = [](const char* key, std::uint64_t value) {
    return std::string("\"") + key + "\": " + std::to_string(value);
  };
  std::string json = "{";
  json += field("schema_version", ScheduleService::kStatsSchemaVersion);
  json += ", \"uptime_seconds\": ";
  append_number(json, uptime_seconds());
  json += ", " + field("backends", live);
  json += ", " + field("submitted", s.submitted);
  json += ", " + field("completed", s.completed);
  json += ", " + field("failed", s.failed);
  json += ", " + field("rejected", s.rejected);
  json += ", " + field("simulated", s.simulated);
  json += ", " + field("fast_path_hits", s.fast_path_hits);
  json += ", " + field("cache_hits", s.cache.hits);
  json += ", " + field("cache_misses", s.cache.misses);
  json += ", " + field("cache_races", s.cache.races);
  json += ", " + field("cache_evictions", s.cache.evictions);
  json += ", " + field("cache_evicted_weight", s.cache.evicted_weight);
  json += ", " + field("cache_expired", s.cache.expired);
  json += ", " + field("cache_weight", cache_weight);
  json += ", " + field("partition_hits", s.subgraph.partition_hits);
  json += ", " + field("partition_misses", s.subgraph.partition_misses);
  json += ", " + field("fragments_assembled", s.subgraph.fragments_assembled);
  json += ", " + field("delta_invalidated", s.subgraph.delta_invalidated);
  json += ", " + field("canon_hits", s.canon.hits);
  json += ", " + field("canon_misses", s.canon.misses);
  std::size_t peak = 0;
  for (const std::size_t depth : s.shard_max_depth) peak = std::max(peak, depth);
  json += ", " + field("max_queue_depth", peak);
  json += ", \"per_backend\": [";
  for (std::size_t i = 0; i < per_backend.size(); ++i) {
    if (i > 0) json += ", ";
    json += per_backend[i];
  }
  json += "]}";
  return json;
}

}  // namespace sts
