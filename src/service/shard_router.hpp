#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "service/backend.hpp"
#include "service/request.hpp"
#include "service/schedule_service.hpp"
#include "support/thread_annotations.hpp"

namespace sts {

/// Sizing knobs of a ShardRouter.
struct RouterConfig {
  /// Number of backends to own. Must be >= 1.
  std::size_t num_backends = 2;

  /// Ring points per backend. More points smooth the key-space split at the
  /// cost of a larger (still tiny) routing table; 64 keeps the imbalance of
  /// a random key set within a few percent.
  std::size_t virtual_nodes = 64;

  /// Configuration applied to every backend service (ignored by a custom
  /// `backend_factory` unless it chooses to use it).
  ServiceConfig backend;

  /// Optional factory for backend `index`. Unset (the default), every
  /// backend is an in-process `ScheduleService(backend)`; set, the router
  /// can mix in-process services, `RemoteBackend`s speaking to `sts-serve`
  /// processes, and test doubles — routing, stats aggregation, and drain
  /// are identical either way. Called during construction and whenever
  /// `set_backend_count` grows the pool; must not return nullptr.
  std::function<std::shared_ptr<ScheduleBackend>(std::size_t index)> backend_factory;
};

/// Thin routing front end that partitions the request-key space across N
/// `ScheduleBackend`s with a consistent-hash ring (the ROADMAP's
/// cross-process sharding seam, now actually crossing processes: by default
/// every backend is an in-process `ScheduleService`, but
/// `RouterConfig::backend_factory` can supply `RemoteBackend`s speaking
/// HTTP/1.1 to `sts-serve` processes — the router only ever touches a
/// backend through `submit(ScheduleRequest)`, a serializable envelope, so
/// the mix is invisible to callers).
///
/// Routing: each backend owns `virtual_nodes` points on a 64-bit ring,
/// placed at `fnv1a64("backend <i> vnode <j>")`; a request routes to the
/// owner of the first ring point at or after `request.key_hash()` (the
/// memoized fnv1a64 of its key, wrapping). Identical requests therefore always land on the same backend
/// (whose own key-sharding then serializes them onto one worker and
/// single-flights the computation), and resizing from N to N+1 backends
/// only moves the keys now owned by the new backend — every other key keeps
/// its backend and its warm cache.
///
/// `submit` forwards the envelope and annotates a `Rejected` outcome with
/// the backend index. `stats()` / `stats_json()` aggregate across backends
/// (including backends already retired by `set_backend_count`, so totals
/// stay monotonic); `drain(i)` waits out one backend, e.g. before retiring
/// it.
///
/// Concurrency: the router lock only covers the routing decision, never a
/// backend call — a submit blocked on backpressure therefore cannot stall
/// routing to other backends or a concurrent `set_backend_count`. Backends
/// are shared-owned, so a submit racing a shrink completes safely on the
/// retiring backend (its future resolves; counters it adds after the
/// retirement snapshot are not folded into the totals).
class ShardRouter {
 public:
  explicit ShardRouter(RouterConfig config = {});

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Routes the request to its backend and forwards to
  /// `ScheduleBackend::submit`. A synchronously rejected admission carries
  /// the backend index in `rejected->backend` (a rejection a remote backend
  /// delivers asynchronously through the settled future keeps whatever the
  /// server recorded — the router never sees it).
  [[nodiscard]] ServiceAdmission submit(ScheduleRequest request) EXCLUDES(mutex_);

  /// Synchronous convenience: `submit(request).wait()`.
  [[nodiscard]] ScheduleResponse schedule(ScheduleRequest request) EXCLUDES(mutex_);

  /// The backend a request (or a raw request key) routes to. Deterministic:
  /// depends only on the key and the current backend count / ring layout.
  [[nodiscard]] std::size_t backend_for(const ScheduleRequest& request) const
      EXCLUDES(mutex_);
  [[nodiscard]] std::size_t backend_for_key(std::string_view key) const EXCLUDES(mutex_);

  [[nodiscard]] std::size_t backend_count() const EXCLUDES(mutex_);

  /// Direct access to one backend through the seam (tests, per-backend
  /// stats inspection). The reference is invalidated by set_backend_count.
  [[nodiscard]] ScheduleBackend& backend(std::size_t index) EXCLUDES(mutex_);

  /// `backend(index)` downcast to the in-process service (tests, cache
  /// inspection). Throws std::invalid_argument when that backend is not a
  /// ScheduleService (e.g. a RemoteBackend — its cache lives in another
  /// process).
  [[nodiscard]] ScheduleService& local_backend(std::size_t index) EXCLUDES(mutex_);

  /// Rebalances to `count` backends. Growing adds fresh services (cold
  /// caches) and moves only the keys the new ring points claim; shrinking
  /// drains each retired backend, folds its counters into the retired
  /// totals, and destroys it (its cached entries are recomputed on their
  /// new backends on demand). Blocks until in-flight work on retired
  /// backends finishes. Throws std::invalid_argument on zero.
  void set_backend_count(std::size_t count) EXCLUDES(mutex_);

  /// Blocks until every job accepted by backend `index` has completed.
  void drain(std::size_t index) EXCLUDES(mutex_);

  /// Blocks until every backend is idle.
  void wait_idle() EXCLUDES(mutex_);

  struct Stats {
    ServiceStats total;  ///< Σ over live + retired backends;
                         ///< shard_max_depth concatenated over
                         ///< live backends in index order
    std::vector<ServiceStats> backends;  ///< per live backend
  };
  [[nodiscard]] Stats stats() const EXCLUDES(mutex_);

  /// Aggregate stats in the flat BENCH_*.json shape of
  /// ScheduleService::stats_json (including `schema_version` and the
  /// router's own `uptime_seconds`), plus `backends` (live count) and a
  /// `per_backend` array of each live backend's own stats document — each
  /// from one `stats_snapshot()`, so the totals always equal the sum of the
  /// per_backend objects in the same document.
  [[nodiscard]] std::string stats_json() const EXCLUDES(mutex_);

  /// Seconds since this router was constructed (monotonic clock).
  [[nodiscard]] double uptime_seconds() const;

 private:
  struct RingPoint {
    std::uint64_t hash = 0;
    std::uint32_t backend = 0;
  };

  [[nodiscard]] std::size_t backend_for_hash_locked(std::uint64_t hash) const
      REQUIRES_SHARED(mutex_);
  void rebuild_ring_locked() REQUIRES(mutex_);

  /// config_.backend_factory(index), or a fresh in-process service.
  [[nodiscard]] std::shared_ptr<ScheduleBackend> make_backend_locked(std::size_t index)
      REQUIRES(mutex_);

  // Takes the shared lock itself; callers operate on the returned snapshot
  // with the lock released, so blocking backend calls never pin it.
  [[nodiscard]] std::vector<std::shared_ptr<ScheduleBackend>> snapshot_backends() const
      EXCLUDES(mutex_);

  mutable SharedMutex mutex_;
  RouterConfig config_ GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<ScheduleBackend>> backends_ GUARDED_BY(mutex_);
  /// Sorted by (hash, backend).
  std::vector<RingPoint> ring_ GUARDED_BY(mutex_);
  /// Counters of destroyed backends.
  ServiceStats retired_ GUARDED_BY(mutex_);
  const std::chrono::steady_clock::time_point start_time_ = std::chrono::steady_clock::now();
};

}  // namespace sts
