#include "pipeline/schedule_cache.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/serialization.hpp"
#include "pipeline/registry.hpp"

namespace sts {

ScheduleCache::Flight ScheduleCache::settle_current_exception() {
  Flight flight;
  try {
    throw;
  } catch (const std::invalid_argument& e) {
    flight.error = e.what();
    flight.invalid = true;
  } catch (const std::exception& e) {
    flight.error = e.what();
  } catch (...) {
    flight.error = "unknown error";
  }
  // A failure must read as one downstream even if what() was empty.
  if (flight.error.empty()) flight.error = "unknown error";
  return flight;
}

std::string canonical_cache_key(const TaskGraph& graph, std::string_view scheduler,
                                const MachineConfig& machine) {
  std::string key;
  key.reserve(80 + 16 + 9 * graph.node_count() + 24 * graph.edge_count());
  key += "scheduler=";
  key += scheduler;
  key += '\n';
  key += machine.cache_key();
  key += '\n';
  key += canonical_fingerprint(graph);
  return key;
}

ScheduleCache::ScheduleCache(std::size_t capacity, std::optional<std::chrono::nanoseconds> ttl)
    : ttl_(ttl), lru_(capacity) {
  if (capacity == 0) throw std::invalid_argument("ScheduleCache: capacity must be >= 1");
}

bool ScheduleCache::is_expired(const Resident& resident) const {
  // One steady_clock read per probe, and only when a ttl is configured at
  // all — the default (no ttl) pays nothing. ttl == 0 expires every entry
  // on its next probe, which tests use for deterministic expiry.
  return ttl_ && std::chrono::steady_clock::now() - resident.inserted >= *ttl_;
}

ScheduleCache::ResultPtr ScheduleCache::probe_locked(std::uint64_t hash, std::string_view key) {
  const Resident* resident = lru_.find(hash, key);
  if (resident == nullptr) return nullptr;
  if (is_expired(*resident)) {
    lru_.erase(hash, key);
    ++stats_.expired;
    return nullptr;
  }
  ++stats_.hits;
  return resident->result;
}

ScheduleCache::ResultPtr ScheduleCache::get_or_schedule(const TaskGraph& graph,
                                                        std::string_view scheduler,
                                                        const MachineConfig& machine) {
  return get_or_compute(canonical_cache_key(graph, scheduler, machine),
                        [&] { return schedule_by_name(scheduler, graph, machine); },
                        graph.node_count());
}

ScheduleCache::ResultPtr ScheduleCache::get_or_compute(
    std::string key, const std::function<ScheduleResult()>& compute, std::size_t weight) {
  const std::uint64_t hash = fnv1a64(key);
  return get_or_compute(hash, std::move(key), compute, weight);
}

void ScheduleCache::end_flight_locked(std::uint64_t hash, const std::string* key) {
  const auto bucket = in_flight_.find(hash);
  std::erase_if(bucket->second, [key](const InFlight& f) { return f.key == key; });
  if (bucket->second.empty()) in_flight_.erase(bucket);
}

ScheduleCache::ResultPtr ScheduleCache::get_or_compute(
    std::uint64_t hash, std::string key, const std::function<ScheduleResult()>& compute,
    std::size_t weight) {
  std::shared_future<Flight> pending;
  // Constructed only on the miss path: a promise allocates shared state,
  // which the hit path (the whole point of the cache) must not pay for.
  std::optional<std::promise<Flight>> promise;
  {
    const MutexLock lock(mutex_);
    if (ResultPtr hit = probe_locked(hash, key)) return hit;
    if (const auto bucket = in_flight_.find(hash); bucket != in_flight_.end()) {
      for (const InFlight& f : bucket->second) {
        if (*f.key == key) {
          pending = f.flight;
          break;
        }
      }
    }
    if (pending.valid()) {
      ++stats_.races;
    } else {
      ++stats_.misses;
      promise.emplace();
      // Records a pointer to this frame's key, not a copy: the record is
      // removed (under this lock) before the key is moved or destroyed.
      in_flight_[hash].push_back(InFlight{&key, promise->get_future().share()});
    }
  }
  // Race loser: share the in-flight computation. A failure arrives as a
  // value and is rethrown here, on this thread.
  if (pending.valid()) {
    const Flight& flight = pending.get();
    if (flight.error.empty()) return flight.result;
    if (flight.invalid) throw std::invalid_argument(flight.error);
    throw std::runtime_error(flight.error);
  }

  // Miss: compute outside the lock — scheduling dominates, and concurrent
  // misses on distinct keys must not serialize behind each other.
  ResultPtr result;
  try {
    result = std::make_shared<const ScheduleResult>(compute());
  } catch (...) {
    {
      const MutexLock lock(mutex_);
      end_flight_locked(hash, &key);  // next request for this key retries
    }
    // Settle the losers with the error detail as a value, then rethrow the
    // original exception locally for this caller.
    promise->set_value(settle_current_exception());
    throw;
  }
  Lru::Evicted evicted;  // freed after the lock: a key can be megabytes
  {
    const MutexLock lock(mutex_);
    end_flight_locked(hash, &key);
    if (lru_.insert(hash, std::move(key), Resident{result, std::chrono::steady_clock::now()},
                    weight, evicted) == nullptr) {
      // Admission refusal: an entry heavier than the whole capacity can
      // never fit. Counted with the evictions so the books still explain
      // the miss traffic it causes.
      ++stats_.evictions;
      stats_.evicted_weight += weight;
    }
    for (const Lru::Entry& entry : evicted) {
      ++stats_.evictions;
      stats_.evicted_weight += entry.weight;
    }
  }
  promise->set_value(Flight{result, {}, false});
  return result;
}

ScheduleCache::ResultPtr ScheduleCache::try_get(std::string_view key) {
  return try_get(fnv1a64(key), key);
}

ScheduleCache::ResultPtr ScheduleCache::try_get(std::uint64_t hash, std::string_view key) {
  const MutexLock lock(mutex_);
  return probe_locked(hash, key);
}

bool ScheduleCache::contains(std::string_view key) const {
  const std::uint64_t hash = fnv1a64(key);
  const MutexLock lock(mutex_);
  const Resident* resident = lru_.peek(hash, key);
  return resident != nullptr && !is_expired(*resident);
}

ScheduleCache::Stats ScheduleCache::stats() const {
  const MutexLock lock(mutex_);
  Stats out = stats_;
  if (ttl_) {
    // Expiry is lazy: an entry past its ttl is only physically dropped by the
    // next mutating probe of its key, yet contains()/try_get already read it
    // as absent. Count such residents here so stats().expired agrees with the
    // lookup behavior at all times, not just after the drop.
    const std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now();
    for (const Lru::Entry& entry : lru_) {
      if (now - entry.value.inserted >= *ttl_) ++out.expired;
    }
  }
  return out;
}

std::size_t ScheduleCache::size() const {
  const MutexLock lock(mutex_);
  return lru_.size();
}

std::size_t ScheduleCache::total_weight() const {
  const MutexLock lock(mutex_);
  return lru_.weight();
}

std::size_t ScheduleCache::capacity() const {
  const MutexLock lock(mutex_);
  return lru_.capacity();
}

ScheduleCache& ScheduleCache::global() {
  static ScheduleCache* cache = new ScheduleCache();
  return *cache;
}

}  // namespace sts
