#include "service/schedule_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "graph/graph_edit.hpp"
#include "pipeline/passes.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/schedule_context.hpp"
#include "support/text.hpp"

namespace sts {

ScheduleService::ScheduleService(ServiceConfig config)
    : cache_(config.cache_capacity, config.cache_ttl),
      queue_depth_(config.queue_depth),
      base_registry_capacity_(config.base_registry_capacity) {
  if (config.subgraph_cache_capacity > 0) {
    subgraph_cache_ = std::make_unique<SubgraphCache>(config.subgraph_cache_capacity);
  }
  std::size_t n = config.num_workers;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(*shards_[i]); });
  }
}

ScheduleService::~ScheduleService() { shutdown(); }

namespace {

/// Converts a cache-layer Flight (result/error/invalid) into the seam's
/// Settled value; the in-process service never populates `rejected`.
[[nodiscard]] Settled settled_from_flight(ScheduleCache::Flight flight) {
  return Settled{std::move(flight.result), std::move(flight.error), flight.invalid,
                 std::nullopt};
}

}  // namespace

ScheduleService::Admission ScheduleService::submit(ScheduleRequest request) {
  if (stopping_.load(std::memory_order_acquire)) {
    throw std::runtime_error("ScheduleService: submit after shutdown");
  }
  // A delta request names its base by digest and carries edits instead of a
  // graph: materialize the edited graph here, before anything derives from
  // the request — downstream (key, cache, scheduling) a delta is then
  // indistinguishable from the equivalent whole-graph request. Resolution
  // failures (unknown base, invalid edit) settle through the returned future
  // so the service itself stays healthy.
  Validity validity = Validity::kUnknown;
  if (request.base_key.has_value()) {
    const bool delta_simulate = request.sim.has_value();
    try {
      request.graph = materialize_delta(request);
      validity = Validity::kValid;
      // The request identity changed with the graph: drop any memoized key.
      // (A fronting ShardRouter routes deltas by base_key without touching
      // key(), but a caller may have.)
      request.invalidate_key();
    } catch (...) {
      std::promise<Settled> failed;
      Admission admission{Future(failed.get_future()), std::nullopt};
      {
        const MutexLock lock(stats_mutex_);
        ++counters_.submitted;
        if (delta_simulate) ++counters_.simulated;
      }
      failed.set_value(settled_from_flight(ScheduleCache::settle_current_exception()));
      finish_one(true);
      return admission;
    }
  }
  // Memoizes the key and its hash inside the request, so the worker (and a
  // fronting ShardRouter) never re-derives either.
  const std::string& key = request.key();
  const std::uint64_t key_hash = request.key_hash();
  // Every submitted request can serve as a delta base — including a
  // materialized delta, so edit chains resolve link by link.
  remember_base(request.key_digest(), request.graph, validity);
  const bool simulate = request.sim.has_value();
  std::promise<Settled> promise;
  Admission admission{Future(promise.get_future()), std::nullopt};
  {
    const MutexLock lock(stats_mutex_);
    ++counters_.submitted;
    if (simulate) ++counters_.simulated;
  }

  // Fast path: an already-completed result resolves synchronously without a
  // queue round trip. Admission control never refuses a cached answer.
  if (ResultPtr hit = cache_.try_get(key_hash, key)) {
    promise.set_value(Settled{std::move(hit), {}, false, std::nullopt});
    {
      const MutexLock lock(stats_mutex_);
      ++counters_.completed;
      ++counters_.fast_path_hits;
    }
    idle_cv_.notify_all();
    return admission;
  }

  // Shard by cache-key hash: identical scenarios serialize on one worker (in
  // submission order), distinct ones spread across the pool.
  const std::size_t shard_index = key_hash % shards_.size();
  Shard& shard = *shards_[shard_index];
  try {
    MutexLock lock(shard.mutex);
    // Re-check under the shard lock: a shutdown() racing with this submit
    // may already have drained and joined the workers, and a job pushed now
    // would leave its future forever pending.
    if (stopping_.load(std::memory_order_acquire)) {
      throw std::runtime_error("ScheduleService: submit after shutdown");
    }
    if (queue_depth_ > 0 && shard.queue.size() >= queue_depth_) {
      if (request.admission == AdmissionPolicy::kReject) {
        const std::size_t depth = shard.queue.size();
        lock.unlock();
        {
          const MutexLock stats_lock(stats_mutex_);
          ++counters_.rejected;
        }
        // A rejection settles a submission just like a completion does.
        idle_cv_.notify_all();
        admission.future = Future();
        admission.rejected = Rejected{shard_index, depth, queue_depth_, std::nullopt};
        return admission;
      }
      // Backpressure: wait for a worker to drain an entry (or for shutdown,
      // which must not leave us waiting on a dead pool). An explicit while
      // loop, not a predicate lambda: the guarded queue read must sit in
      // this (annotated) scope for the thread-safety analysis to verify it.
      while (!stopping_.load(std::memory_order_acquire) &&
             shard.queue.size() >= queue_depth_) {
        shard.space_cv.wait(shard.mutex);
      }
      if (stopping_.load(std::memory_order_acquire)) {
        throw std::runtime_error("ScheduleService: submit after shutdown");
      }
    }
    // A positive priority jumps the shard queue (best-effort: it cannot
    // preempt the job a worker already holds).
    if (request.priority > 0) {
      shard.queue.push_front(Job{std::move(request), std::move(promise)});
    } else {
      shard.queue.push_back(Job{std::move(request), std::move(promise)});
    }
    shard.max_depth = std::max(shard.max_depth, shard.queue.size());
  } catch (...) {
    // Nothing was enqueued (shutdown race, or the Job move threw): roll the
    // submission count back so wait_idle can still balance.
    {
      const MutexLock stats_lock(stats_mutex_);
      --counters_.submitted;
      if (simulate) --counters_.simulated;
    }
    // The rollback may have just satisfied a wait_idle that saw the inflated
    // count; without this wakeup (and with the workers gone after shutdown)
    // it would sleep forever.
    idle_cv_.notify_all();
    throw;
  }
  shard.cv.notify_one();
  return admission;
}

ScheduleResult ScheduleService::compute_job(const Job& job) {
  const ScheduleRequest& request = job.request;
  // With subgraph memoization on, a whole-graph cache miss still reuses every
  // cached per-partition fragment and schedules only the partitions a delta
  // (or a fresh near-duplicate) actually changed.
  ScheduleResult result =
      subgraph_cache_ ? schedule_with_subgraph_cache(request.scheduler, request.graph,
                                                     request.machine, *subgraph_cache_,
                                                     request.base_key.has_value())
                      : schedule_by_name(request.scheduler, request.graph, request.machine);
  if (!request.sim) return result;
  if (!result.streaming || !result.buffers) {
    throw std::invalid_argument(
        "ScheduleService: a simulated request requires a streaming scheduler, got " +
        request.scheduler);
  }
  // Rebuild a context around the scheduled artifacts and reuse the pipeline
  // SimulationPass, sharing its deadlock/tick-limit validation and timing
  // capture with the synchronous pipeline path.
  // The result is still worker-local, so the schedule artifacts can be moved
  // through the context and back instead of deep-copied.
  ScheduleContext ctx;
  ctx.graph = &request.graph;
  ctx.machine = request.machine;
  ctx.streaming = std::move(result.streaming);
  ctx.buffers = std::move(result.buffers);
  Pipeline pipeline;
  pipeline.emplace<SimulationPass>(*request.sim);
  pipeline.run(ctx);
  result.streaming = std::move(ctx.streaming);
  result.buffers = std::move(ctx.buffers);
  result.sim = std::move(ctx.sim);
  for (PassTiming& timing : ctx.timings) result.timings.push_back(std::move(timing));
  return result;
}

void ScheduleService::worker_loop(Shard& shard) {
  for (;;) {
    Job job;
    {
      const MutexLock lock(shard.mutex);
      while (!stopping_.load(std::memory_order_acquire) && shard.queue.empty()) {
        shard.cv.wait(shard.mutex);
      }
      if (shard.queue.empty()) return;  // stopping, and fully drained
      job = std::move(shard.queue.front());
      shard.queue.pop_front();
      // The pop opened one queue slot: wake one backpressured submitter.
      if (queue_depth_ > 0) shard.space_cv.notify_one();
    }
    Settled settled;
    try {
      settled.result = cache_.get_or_compute(
          job.request.key_hash(), job.request.release_key(),
          [this, &job] { return compute_job(job); }, job.request.graph.node_count());
    } catch (...) {
      settled = settled_from_flight(ScheduleCache::settle_current_exception());
    }
    const bool failed = !settled.error.empty();
    job.promise.set_value(std::move(settled));
    finish_one(failed);
  }
}

TaskGraph ScheduleService::materialize_delta(const ScheduleRequest& request) {
  const std::string& digest = *request.base_key;
  const Base base = find_base(digest);
  if (!base.graph) {
    throw std::invalid_argument("ScheduleService: unknown base_key '" + digest +
                                "' (never submitted here, or aged out of the base registry)");
  }
  TaskGraph graph = apply_graph_edits(*base.graph, request.edits);
  // Validate the composed graph NOW, not at schedule time: the cache key
  // hashes *derived* volumes (canonical_fingerprint uses out-edge volumes,
  // not declared-output records), so an edit list composing a non-canonical
  // graph — say a retuned output contradicting its out-edge volume — would
  // alias its still-valid base's key and silently return the base's cached
  // result instead of failing.
  //
  // A local edit list keeps node ids, kinds and adjacency, so over a valid
  // base only the touched nodes' rules can report anything and validating
  // them yields the full violation list. A base of unknown validity is
  // validated in full once, here, and the outcome kept in its entry; every
  // other case validates the whole composed graph.
  const std::optional<std::vector<NodeId>> scope = local_edit_scope(request.edits);
  Validity validity = base.validity;
  if (scope && validity == Validity::kUnknown) {
    validity = base.graph->validate().empty() ? Validity::kValid : Validity::kInvalid;
    note_base_validity(digest, base.graph.get(), validity);
  }
  const std::vector<std::string> violations = scope && validity == Validity::kValid
                                                  ? graph.validate_nodes(*scope)
                                                  : graph.validate();
  if (!violations.empty()) {
    std::string message = "ScheduleService: edits compose an invalid graph:";
    for (const std::string& v : violations) {
      message += "\n  - ";
      message += v;
    }
    throw std::invalid_argument(message);
  }
  return graph;
}

ScheduleService::Base* ScheduleService::touch_base_locked(const std::string& digest) {
  const auto it = bases_.find(digest);
  if (it == bases_.end()) return nullptr;
  bases_lru_.splice(bases_lru_.begin(), bases_lru_, it->second);
  return &it->second->base;
}

void ScheduleService::remember_base(const std::string& digest, const TaskGraph& graph,
                                    Validity validity) {
  if (base_registry_capacity_ == 0) return;
  {
    const MutexLock lock(bases_mutex_);
    // Known digest: just refresh recency, sparing the graph copy.
    if (touch_base_locked(digest) != nullptr) return;
  }
  // Copy (and free evicted graphs) outside the lock, where it does not stall
  // find_base on other submitting threads.
  auto copy = std::make_shared<const TaskGraph>(graph);
  std::vector<std::shared_ptr<const TaskGraph>> evicted;
  const MutexLock lock(bases_mutex_);
  // A concurrent submission may have registered the digest meanwhile; its
  // entry stands and this copy is dropped.
  if (touch_base_locked(digest) != nullptr) return;
  bases_lru_.push_front(BaseEntry{digest, Base{std::move(copy), validity}});
  bases_.emplace(digest, bases_lru_.begin());
  while (bases_.size() > base_registry_capacity_) {
    evicted.push_back(std::move(bases_lru_.back().base.graph));
    bases_.erase(bases_lru_.back().digest);
    bases_lru_.pop_back();
  }
}

ScheduleService::Base ScheduleService::find_base(const std::string& digest) {
  const MutexLock lock(bases_mutex_);
  const Base* base = touch_base_locked(digest);
  return base != nullptr ? *base : Base{};
}

void ScheduleService::note_base_validity(const std::string& digest, const TaskGraph* graph,
                                         Validity validity) {
  const MutexLock lock(bases_mutex_);
  if (Base* base = touch_base_locked(digest); base != nullptr && base->graph.get() == graph) {
    base->validity = validity;
  }
}

void ScheduleService::finish_one(bool failed) {
  {
    const MutexLock lock(stats_mutex_);
    ++counters_.completed;
    if (failed) ++counters_.failed;
  }
  idle_cv_.notify_all();
}

void ScheduleService::wait_idle() {
  const MutexLock lock(stats_mutex_);
  while (counters_.completed + counters_.rejected != counters_.submitted) {
    idle_cv_.wait(stats_mutex_);
  }
}

void ScheduleService::shutdown() {
  stopping_.store(true, std::memory_order_release);
  for (const auto& shard : shards_) {
    // Acquire/release each shard mutex so a worker (or a backpressured
    // submitter) between its wait-loop condition check and cv wait cannot
    // miss the stop signal.
    const MutexLock lock(shard->mutex);
  }
  for (const auto& shard : shards_) {
    shard->cv.notify_all();
    shard->space_cv.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

ScheduleService::Stats ScheduleService::stats() const {
  Stats out;
  {
    const MutexLock lock(stats_mutex_);
    out = counters_;
  }
  out.shard_max_depth.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mutex);
    out.shard_max_depth.push_back(shard->max_depth);
  }
  out.cache = cache_.stats();
  if (subgraph_cache_) {
    out.subgraph = subgraph_cache_->stats();
    out.canon = subgraph_cache_->canon_memo().stats();
  }
  return out;
}

double ScheduleService::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_).count();
}

std::string ScheduleService::stats_json() const {
  return render_stats_json(stats(), worker_count(), queue_depth_, cache_.size(),
                           cache_.total_weight(), cache_.capacity(), uptime_seconds());
}

ScheduleService::Snapshot ScheduleService::stats_snapshot() const {
  Snapshot snapshot;
  snapshot.stats = stats();
  snapshot.cache_weight = cache_.total_weight();
  snapshot.json = render_stats_json(snapshot.stats, worker_count(), queue_depth_, cache_.size(),
                                    snapshot.cache_weight, cache_.capacity(), uptime_seconds());
  return snapshot;
}

std::string ScheduleService::render_stats_json(const Stats& s, std::size_t workers,
                                               std::size_t queue_depth_limit,
                                               std::size_t cache_size, std::size_t cache_weight,
                                               std::size_t cache_capacity, double uptime) {
  const auto field = [](const char* key, std::uint64_t value) {
    return std::string("\"") + key + "\": " + std::to_string(value);
  };
  std::string json = "{";
  json += field("schema_version", kStatsSchemaVersion);
  json += ", \"uptime_seconds\": ";
  append_number(json, uptime < 0 ? 0.0 : uptime);
  json += ", " + field("submitted", s.submitted);
  json += ", " + field("completed", s.completed);
  json += ", " + field("failed", s.failed);
  json += ", " + field("rejected", s.rejected);
  json += ", " + field("simulated", s.simulated);
  json += ", " + field("fast_path_hits", s.fast_path_hits);
  json += ", " + field("workers", workers);
  json += ", " + field("queue_depth_limit", queue_depth_limit);
  std::size_t peak = 0;
  json += ", \"shard_max_depth\": [";
  for (std::size_t i = 0; i < s.shard_max_depth.size(); ++i) {
    if (i > 0) json += ", ";
    json += std::to_string(s.shard_max_depth[i]);
    peak = std::max(peak, s.shard_max_depth[i]);
  }
  json += "]";
  json += ", " + field("max_queue_depth", peak);
  json += ", " + field("cache_hits", s.cache.hits);
  json += ", " + field("cache_misses", s.cache.misses);
  json += ", " + field("cache_races", s.cache.races);
  json += ", " + field("cache_evictions", s.cache.evictions);
  json += ", " + field("cache_evicted_weight", s.cache.evicted_weight);
  json += ", " + field("cache_expired", s.cache.expired);
  json += ", " + field("cache_size", cache_size);
  json += ", " + field("cache_weight", cache_weight);
  json += ", " + field("cache_capacity", cache_capacity);
  json += ", " + field("partition_hits", s.subgraph.partition_hits);
  json += ", " + field("partition_misses", s.subgraph.partition_misses);
  json += ", " + field("fragments_assembled", s.subgraph.fragments_assembled);
  json += ", " + field("delta_invalidated", s.subgraph.delta_invalidated);
  json += ", " + field("canon_hits", s.canon.hits);
  json += ", " + field("canon_misses", s.canon.misses);
  json += "}";
  return json;
}

}  // namespace sts
