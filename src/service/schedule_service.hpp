#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/task_graph.hpp"
#include "pipeline/schedule_cache.hpp"
#include "pipeline/subgraph_cache.hpp"
#include "service/backend.hpp"
#include "service/request.hpp"
#include "sim/dataflow_sim.hpp"
#include "support/thread_annotations.hpp"

namespace sts {

/// Sizing knobs of a ScheduleService.
struct ServiceConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  std::size_t num_workers = 0;

  /// Total-weight capacity of the service-owned bounded LRU ScheduleCache
  /// (entries weigh their graph's node count; see ScheduleCache).
  std::size_t cache_capacity = ScheduleCache::kDefaultCapacity;

  /// Per-shard queue depth limit; 0 = unbounded (accept everything). With a
  /// bound, a full shard makes a `AdmissionPolicy::kBlock` request block
  /// until a worker drains an entry and a `kReject` request come back with a
  /// typed `Rejected` outcome.
  std::size_t queue_depth = 0;

  /// Optional per-entry time-to-live for the service-owned ScheduleCache:
  /// a cached result older than this reads as a miss and is recomputed
  /// (counted in the `cache_expired` stat). nullopt = results never age out.
  std::optional<std::chrono::nanoseconds> cache_ttl;

  /// Total-weight capacity of the per-partition fragment cache (SubgraphCache;
  /// entries weigh their partition's node count). 0 disables subgraph
  /// memoization entirely — workers fall back to whole-graph scheduling, the
  /// PR-6 behavior.
  std::size_t subgraph_cache_capacity = SubgraphCache::kDefaultCapacity;

  /// Entries kept in the base-request registry that delta requests resolve
  /// their `base_key` against (LRU of materialized graphs, keyed by
  /// key_digest()). Every submitted request is remembered, so any recent
  /// request — including a materialized delta — can serve as a base. Each
  /// entry also records whether its graph is known to validate: a
  /// materialized delta is (it passed validation), a whole-graph request's
  /// graph is validated once, on the first local delta against it.
  std::size_t base_registry_capacity = 1024;
};

/// Concurrent scheduling front end: a worker thread pool serving
/// `submit(ScheduleRequest)` envelopes through a bounded, size-aware LRU
/// ScheduleCache.
///
/// Each request is keyed by `ScheduleRequest::key()` and sharded to the
/// worker `key_hash() % num_workers`, so identical scenarios land on the
/// same queue in order; together with the cache's single-flight miss path
/// this guarantees that N concurrent submissions of the same scenario run
/// the scheduling pipeline exactly once and share one immutable result.
/// Distinct scenarios spread across workers and schedule in parallel. The
/// same keying is what ShardRouter consistent-hashes across several
/// services — this class is the single-process backend of that seam.
///
/// Requests whose result is already cached complete synchronously inside
/// `submit` (the returned future is immediately ready) without touching a
/// worker queue — admission control never refuses a cached answer.
///
/// Admission control: with `ServiceConfig::queue_depth > 0` every shard
/// queue is bounded and `ScheduleRequest::admission` picks the policy on a
/// full shard — `kBlock` applies backpressure (waits on the shard's space
/// condition variable until a worker pops an entry), `kReject` never blocks
/// and instead resolves to a typed `Rejected` outcome carrying the observed
/// depth, for latency-sensitive callers that would rather shed load than
/// wait. A positive `ScheduleRequest::priority` enqueues at the front of its
/// shard (best-effort queue jump).
///
/// A request with `sim` set chains a SimulationPass after scheduling on the
/// worker, so batch sweeps obtain bulk-engine simulated makespans in one
/// hop; its results cache under the sim-options-extended request key, so
/// simulated and plain results never collide.
///
/// Scheduling errors (unknown scheduler name, invalid graph, a simulated
/// schedule that deadlocks) surface as the exception of `Future::get()` —
/// or as `ScheduleResponse::error` through `Admission::wait()` /
/// `schedule()`; the service itself stays healthy. Destruction (or
/// `shutdown()`) drains every queued job before joining the workers, so no
/// future is ever abandoned; submitters blocked on backpressure are woken
/// and throw.
class ScheduleService : public ScheduleBackend {
 public:
  using ResultPtr = ScheduleCache::ResultPtr;
  using Rejected = sts::Rejected;

  /// A settled job: at most one of `result` (success) or `error` (failure
  /// detail) is populated (the in-process service never uses the seam's
  /// asynchronous `rejected` channel — it refuses synchronously). Workers
  /// settle failures as plain values — never as a stored exception — for
  /// the reason documented on `ScheduleCache::Flight`; the original
  /// exception is reconstructed on the *consuming* thread by
  /// `Future::get()`.
  using Settled = sts::Settled;

  /// The seam's future/admission types under their historical names.
  using Future = ServiceFuture;
  using Admission = ServiceAdmission;
  using Stats = ServiceStats;

  explicit ScheduleService(ServiceConfig config = {});
  ~ScheduleService() override;

  ScheduleService(const ScheduleService&) = delete;
  ScheduleService& operator=(const ScheduleService&) = delete;

  /// THE submission path: admits one request envelope (moved into the job)
  /// and returns its admission. With `AdmissionPolicy::kBlock` (the default)
  /// the admission is always accepted — a full shard blocks the caller until
  /// a worker drains an entry — so `.future` can be used directly; with
  /// `kReject` a full shard yields `rejected` instead of waiting. Throws
  /// std::runtime_error after shutdown().
  [[nodiscard]] Admission submit(ScheduleRequest request) override
      EXCLUDES(stats_mutex_, bases_mutex_);

  /// Blocks until every accepted job submitted so far has completed.
  void wait_idle() override EXCLUDES(stats_mutex_);

  /// Drains all queued jobs, joins the workers, and rejects further
  /// submissions. Idempotent; called by the destructor.
  void shutdown();

  [[nodiscard]] Stats stats() const EXCLUDES(stats_mutex_);

  /// One consistent observation: counters, resident cache weight, and the
  /// rendered stats_json document, all from the same stats() snapshot.
  [[nodiscard]] Snapshot stats_snapshot() const override;

  /// Machine-readable JSON rendering of stats() plus cache size and sizing
  /// knobs: one object of scalar keys in the style of the BENCH_*.json bench
  /// reports, plus a single `shard_max_depth` array (per-shard queue
  /// high-water marks; `max_queue_depth` carries the scalar peak for flat
  /// consumers). Keys should stay stable across versions; `schema_version`
  /// counts breaking shape changes and `uptime_seconds` lets scrapes detect
  /// restarts.
  [[nodiscard]] std::string stats_json() const;

  /// Breaking-shape version of the stats_json() document. Bumped when a key
  /// is removed or changes meaning — additions don't count.
  static constexpr std::uint64_t kStatsSchemaVersion = 2;

  /// Renders one Stats snapshot plus sizing knobs in the stats_json() shape
  /// — `stats_json()` is `render_stats_json(stats(), ...)`, and ShardRouter
  /// reuses it so per-backend records come from a single stats() snapshot.
  /// `uptime` is the emitting component's age (seconds since construction).
  [[nodiscard]] static std::string render_stats_json(const Stats& stats, std::size_t workers,
                                                     std::size_t queue_depth_limit,
                                                     std::size_t cache_size,
                                                     std::size_t cache_weight,
                                                     std::size_t cache_capacity, double uptime);

  /// Seconds since this service was constructed (monotonic clock).
  [[nodiscard]] double uptime_seconds() const;

  [[nodiscard]] ScheduleCache& cache() noexcept { return cache_; }
  /// The fragment cache, or nullptr when subgraph memoization is disabled.
  [[nodiscard]] SubgraphCache* subgraph_cache() noexcept { return subgraph_cache_.get(); }
  [[nodiscard]] std::size_t worker_count() const noexcept override { return shards_.size(); }
  [[nodiscard]] std::size_t queue_depth_limit() const noexcept { return queue_depth_; }

 private:
  struct Job {
    ScheduleRequest request;  ///< request.key() is memoized before enqueue
    std::promise<Settled> promise;
  };
  struct Shard {
    Mutex mutex;
    CondVar cv;        ///< workers: queue non-empty or stopping
    CondVar space_cv;  ///< producers: queue below the depth limit
    std::deque<Job> queue GUARDED_BY(mutex);
    std::size_t max_depth GUARDED_BY(mutex) = 0;  ///< high-water mark
  };

  [[nodiscard]] ScheduleResult compute_job(const Job& job);
  void worker_loop(Shard& shard) EXCLUDES(stats_mutex_);
  void finish_one(bool failed) EXCLUDES(stats_mutex_);

  /// What the base registry knows of a stored graph's validate() result.
  enum class Validity : std::uint8_t { kUnknown, kValid, kInvalid };
  struct Base {
    std::shared_ptr<const TaskGraph> graph;  ///< null = digest not registered
    Validity validity = Validity::kUnknown;
  };
  struct BaseEntry {
    std::string digest;
    Base base;
  };

  /// Resolves a delta request's base, applies its edits and validates the
  /// composed graph. Throws std::invalid_argument on an unknown base, a bad
  /// edit, or an invalid composition.
  [[nodiscard]] TaskGraph materialize_delta(const ScheduleRequest& request)
      EXCLUDES(bases_mutex_);

  /// Remembers `graph` as a possible delta base under the request digest
  /// (bounded LRU; an already-known digest is just refreshed, sparing the
  /// graph copy on repeated submissions of one scenario). The copy is made
  /// outside the registry lock.
  void remember_base(const std::string& digest, const TaskGraph& graph, Validity validity)
      EXCLUDES(bases_mutex_);
  [[nodiscard]] Base find_base(const std::string& digest) EXCLUDES(bases_mutex_);
  /// Stores the outcome of validating a registered graph in full; a no-op if
  /// the digest has since been re-registered with another graph object.
  void note_base_validity(const std::string& digest, const TaskGraph* graph, Validity validity)
      EXCLUDES(bases_mutex_);
  /// The entry under `digest` moved to the LRU front, or nullptr.
  [[nodiscard]] Base* touch_base_locked(const std::string& digest) REQUIRES(bases_mutex_);

  ScheduleCache cache_;
  std::unique_ptr<SubgraphCache> subgraph_cache_;  ///< null = disabled
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::size_t queue_depth_ = 0;
  std::atomic<bool> stopping_{false};
  const std::chrono::steady_clock::time_point start_time_ = std::chrono::steady_clock::now();

  /// Base-request registry for delta resolution: digest -> materialized graph.
  mutable Mutex bases_mutex_;
  std::list<BaseEntry> bases_lru_ GUARDED_BY(bases_mutex_);
  std::unordered_map<std::string, decltype(bases_lru_)::iterator> bases_
      GUARDED_BY(bases_mutex_);
  std::size_t base_registry_capacity_ = 0;

  mutable Mutex stats_mutex_;
  CondVar idle_cv_;  ///< signalled on every job completion/rejection
  /// Cache and shard_max_depth fields filled lazily by stats().
  Stats counters_ GUARDED_BY(stats_mutex_);
};

}  // namespace sts
