#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pipeline/scheduler.hpp"
#include "support/hash.hpp"
#include "support/thread_annotations.hpp"

namespace sts {

/// Canonical cache key of a bare scheduling query: the scheduler name, the
/// machine config, and the graph's canonical_fingerprint (the binary normal
/// form of graph/serialization.cpp — identical structure and volumes produce
/// identical keys regardless of node names). This is the unversioned core;
/// the serving layer derives its full key (schema version + this + optional
/// sim options) through ScheduleRequest::key() in service/request.hpp.
[[nodiscard]] std::string canonical_cache_key(const TaskGraph& graph,
                                              std::string_view scheduler,
                                              const MachineConfig& machine);

/// Memoizes full pipeline results keyed by the canonical graph+config hash,
/// in the spirit of the program caches of dataflow runtimes: repeated
/// queries on identical workloads skip partitioning, scheduling, and FIFO
/// sizing entirely and return a shared immutable result. Hash collisions are
/// disambiguated with the full key, so a hit is always exact.
///
/// Bounded and size-aware: every entry carries a weight (for schedule
/// results, the graph's node count — large graphs cost proportionally more
/// memory to hold and more time to recompute) and `capacity()` bounds the
/// TOTAL WEIGHT, not the entry count. Inserting past the cap evicts
/// least-recently-used entries until the weight fits (counted in
/// `Stats::evictions` / `Stats::evicted_weight`); an entry heavier than the
/// whole capacity is refused at admission (it can never fit, and admitting
/// it would churn out every resident — the compute's caller still gets its
/// result, the cache just will not hold it), so memory stays bounded under
/// sustained traffic with an unbounded key universe. Generic
/// `get_or_compute` callers default to weight 1, which degenerates to the
/// classic entry-count LRU.
///
/// Single-flight: concurrent requests for the same missing key compute the
/// result exactly once. The first thread computes (a `miss`); every thread
/// that arrives while that computation is in flight blocks on it and shares
/// the result (a `race`). A compute that throws propagates the failure to
/// all waiters (race losers rethrow a locally reconstructed exception — see
/// `Flight`) and leaves the key uncached, so the next request retries.
/// Consequently `Stats::misses` equals the number of schedules actually
/// computed, and hits + misses + races equals the number of lookups.
///
/// Optional per-entry TTL: with a ttl configured, every entry remembers its
/// insertion time and a lookup that finds an entry older than the ttl drops
/// it (counted in `Stats::expired`, NOT as an eviction) and proceeds as a
/// miss. Expiry is lazy — nothing scans the cache in the background; a stale
/// entry costs memory only until the next probe of its key or its LRU
/// eviction. Without a ttl (the default) entries never age out.
///
/// The compute callable must not re-enter the cache with the same key (it
/// would wait on its own in-flight marker).
class ScheduleCache {
 public:
  using ResultPtr = std::shared_ptr<const ScheduleResult>;

  /// A settled computation shared across threads as a plain value: exactly
  /// one of `result` (success) or `error` (failure detail) is populated.
  /// Errors deliberately cross thread boundaries as strings rather than as
  /// a stored `exception_ptr`: libstdc++ refcounts exception objects inside
  /// uninstrumented runtime code, so ThreadSanitizer cannot order a
  /// cross-thread rethrow against the thrower and reports a false data
  /// race. Consumers rebuild the exception locally (`invalid` selects
  /// std::invalid_argument over std::runtime_error).
  struct Flight {
    ResultPtr result;
    std::string error;     ///< non-empty iff the computation failed
    bool invalid = false;  ///< failure maps to std::invalid_argument
  };

  /// Folds the in-flight exception into a `Flight` failure value. Must be
  /// called from inside a catch block; the rethrow-and-classify stays on
  /// the calling thread, which is the whole point — see `Flight`.
  [[nodiscard]] static Flight settle_current_exception();

  struct Stats {
    std::uint64_t hits = 0;       ///< completed entry found in the cache
    std::uint64_t misses = 0;     ///< caller computed the result (== schedules run)
    std::uint64_t races = 0;      ///< joined another thread's in-flight computation
    std::uint64_t evictions = 0;  ///< entries dropped by the weight bound
    std::uint64_t evicted_weight = 0;  ///< total weight of those dropped entries
    std::uint64_t expired = 0;  ///< entries aged out by the ttl: dropped on a
                                ///< mutating probe, or still resident but past
                                ///< the ttl at the stats() snapshot (so this
                                ///< always agrees with what contains() reads)
  };

  /// Default total-weight bound: with schedule entries weighing their graph's
  /// node count (typically 10^2..10^3), this holds on the order of the old
  /// 4096-entry default for mid-sized graphs.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  /// Throws std::invalid_argument on zero capacity. A ttl of nullopt (the
  /// default) disables expiry; a ttl of zero expires every entry on its next
  /// probe (useful for deterministic expiry tests).
  explicit ScheduleCache(std::size_t capacity = kDefaultCapacity,
                         std::optional<std::chrono::nanoseconds> ttl = std::nullopt);

  /// Returns the cached result for (graph, scheduler, machine), computing
  /// and inserting it through the global SchedulerRegistry on a miss. The
  /// entry weighs the graph's node count.
  [[nodiscard]] ResultPtr get_or_schedule(const TaskGraph& graph, std::string_view scheduler,
                                          const MachineConfig& machine) EXCLUDES(mutex_);

  /// Core single-flight lookup under an arbitrary precomputed key and its
  /// caller-supplied bucket hash (a request hashes its key once; see
  /// ScheduleRequest::key_hash()): returns the cached result, or runs
  /// `compute` (outside the cache lock, exactly once per key across all
  /// concurrent callers) and caches it with the given admission weight
  /// (clamped to >= 1). The hash only selects a bucket — entries and
  /// in-flight computations are matched by the full key — so a caller must
  /// use one hash per key consistently, but a collision is never wrong.
  [[nodiscard]] ResultPtr get_or_compute(std::uint64_t hash, std::string key,
                                         const std::function<ScheduleResult()>& compute,
                                         std::size_t weight = 1) EXCLUDES(mutex_);
  /// For callers without a request: hashes `key` with fnv1a64.
  [[nodiscard]] ResultPtr get_or_compute(std::string key,
                                         const std::function<ScheduleResult()>& compute,
                                         std::size_t weight = 1) EXCLUDES(mutex_);

  /// Non-blocking probe: the completed entry for `key` (bumping its recency
  /// and counting a hit), or nullptr. Absence is not counted as a miss —
  /// callers fall through to get_or_compute, which classifies the lookup.
  [[nodiscard]] ResultPtr try_get(std::uint64_t hash, std::string_view key) EXCLUDES(mutex_);
  /// For callers without a request: hashes `key` with fnv1a64.
  [[nodiscard]] ResultPtr try_get(std::string_view key) EXCLUDES(mutex_);

  /// True if a completed, unexpired entry for `key` is cached. No recency
  /// bump, no stats, and no erasure of an expired entry (this is a const
  /// inspection hook for tests and monitoring): an entry past its ttl reads
  /// as absent here and is physically dropped by the next mutating probe.
  [[nodiscard]] bool contains(std::string_view key) const EXCLUDES(mutex_);

  /// Re-configures the ttl for subsequent lookups; applies to already
  /// resident entries too (their insertion times are always recorded).
  void set_ttl(std::optional<std::chrono::nanoseconds> ttl) EXCLUDES(mutex_);
  [[nodiscard]] std::optional<std::chrono::nanoseconds> ttl() const EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const EXCLUDES(mutex_);  ///< resident entry count
  /// Resident weight, <= capacity().
  [[nodiscard]] std::size_t total_weight() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t capacity() const EXCLUDES(mutex_);  ///< total-weight bound

  /// Re-bounds the cache, evicting LRU entries if shrinking below the
  /// current total weight. Throws std::invalid_argument on zero.
  void set_capacity(std::size_t capacity) EXCLUDES(mutex_);

  /// Drops all completed entries and resets stats. In-flight computations
  /// are unaffected and will insert their results afterwards.
  void clear() EXCLUDES(mutex_);

  /// The process-wide cache used by cached convenience entry points.
  [[nodiscard]] static ScheduleCache& global();

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::string key;  ///< full canonical key, checked on every probe
    std::size_t weight = 1;
    ResultPtr result;
    /// Insertion time, for ttl expiry. Always recorded (one steady_clock
    /// read on the miss path, where scheduling dominates anyway) so a ttl
    /// configured later still applies to resident entries.
    std::chrono::steady_clock::time_point inserted;
  };
  using Lru = std::list<Entry>;
  /// A computation in progress: the computing caller's key (alive on its
  /// stack until it removes this record, under the lock) and the future its
  /// race losers wait on.
  struct InFlight {
    const std::string* key;
    std::shared_future<Flight> flight;
  };

  [[nodiscard]] Lru::const_iterator find_entry_locked(std::uint64_t hash,
                                                      std::string_view key) const
      REQUIRES(mutex_);
  [[nodiscard]] bool is_expired_locked(const Entry& entry) const REQUIRES(mutex_);
  void erase_expired_locked(Lru::const_iterator it) REQUIRES(mutex_);
  void evict_to_capacity_locked() REQUIRES(mutex_);
  void end_flight_locked(std::uint64_t hash, const std::string* key) REQUIRES(mutex_);

  mutable Mutex mutex_;
  Lru lru_ GUARDED_BY(mutex_);  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::vector<Lru::const_iterator>> buckets_
      GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::vector<InFlight>> in_flight_ GUARDED_BY(mutex_);
  std::size_t capacity_ GUARDED_BY(mutex_);
  /// nullopt = never expire.
  std::optional<std::chrono::nanoseconds> ttl_ GUARDED_BY(mutex_);
  /// Σ entry weight, <= capacity_ outside evict.
  std::size_t weight_ GUARDED_BY(mutex_) = 0;
  Stats stats_ GUARDED_BY(mutex_);
};

}  // namespace sts
