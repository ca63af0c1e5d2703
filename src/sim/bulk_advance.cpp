// Bulk-advance simulation engine.
//
// The tick-accurate reference engine (dataflow_sim.cpp) only ever schedules
// work for the immediately following tick, so simulated time is contiguous
// and each tick's outcome is a deterministic, evaluation-order-independent
// function of the state (per-edge occupancies, per-node consume/produce
// counters, releases). This engine exploits that: it steps ticks with the
// exact same rules, records the per-tick action lists in a rolling window,
// and when the last two windows of length L are identical it checks a set of
// algebraic drift conditions proving the pattern will repeat verbatim:
//
//   - every finite-capacity FIFO has zero net occupancy change per period
//     (its within-period trajectory then replays exactly);
//   - every unbounded (memory) channel touched by the pattern either drifts
//     upward while never observed empty, or drains at a rate bounded away
//     from empty for m more periods;
//   - every acting node advances its consume/produce counters consistently
//     with its production rate (so the ceil(j*den/num) gates shift by exactly
//     the observed deltas) and stays strictly inside its stream (no node
//     completes, so no barrier fires and no cap switches branch).
//
// Under those conditions the next m periods are provably identical to the
// observed one, so the engine advances counters, occupancies, last-movement
// times, and the clock by m*L in O(period) instead of O(m*L*degree). First
// outputs never occur inside a jump (a node producing in the pattern has
// produced before), and completions/barriers are excluded by the m bound, so
// makespan, finish, first_out, deadlocks, stuck sets, and tick accounting
// are bit-identical to the reference engine (see test_sim_engines.cpp).
//
// Cost therefore scales with transient lengths and the number of node
// completions rather than with total stream volume.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/dataflow_sim.hpp"
#include "sim/sim_internal.hpp"

namespace sts::sim_detail {

namespace {

/// Rolling-window size in ticks; patterns up to kWindow/2 long are detected.
constexpr std::size_t kWindow = 1024;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Recent occurrences of one tick-hash, newest-first ring. Multi-rate steady
/// states echo short sub-patterns (the same tick-hash every few ticks) long
/// before the full period repeats, so the most recent occurrence alone is a
/// poor period candidate: all viable distances are tried, shortest first.
struct HashHits {
  static constexpr std::uint32_t kCapacity = 24;
  std::int64_t tick[kCapacity];
  std::uint32_t count = 0;

  void push(std::int64_t t) {
    tick[count % kCapacity] = t;
    ++count;
  }
  [[nodiscard]] std::uint32_t size() const { return std::min(count, kCapacity); }
};

}  // namespace

SimResult simulate_bulk_advance(const TaskGraph& graph, const StreamingSchedule& schedule,
                                const BufferPlan& buffers, const SimOptions& options) {
  const std::size_t n = graph.node_count();
  const std::size_t edge_count = graph.edge_count();
  SimSetup setup(graph, schedule, buffers);
  SimResult result;
  result.engine_used = SimEngine::kBulkAdvance;
  result.finish.assign(n, 0);
  result.first_out.assign(n, 0);

  // --- Mutable simulation state -------------------------------------------
  std::vector<std::int64_t> occupancy(edge_count, 0);
  const std::vector<TaskProfile>& profile = setup.profile;
  std::vector<std::int64_t> consumed(n, 0);
  std::vector<std::int64_t> produced(n, 0);
  std::vector<std::int64_t> release = setup.release;
  std::vector<bool> complete(n, false);
  const auto& blocks = schedule.partition.blocks;
  std::vector<std::int64_t> block_pending = setup.block_pending;
  std::size_t incomplete_pe_tasks = setup.incomplete_pe_tasks;
  std::size_t next_block_to_release = blocks.empty() ? 0 : 1;
  const std::span<const Edge> edges = graph.edges();

  // --- Wake bookkeeping (mirrors the reference priority queue, which only
  // ever holds entries for `now` and `now + 1`) ----------------------------
  std::vector<NodeId> batch;
  std::vector<NodeId> next_wake;
  std::vector<NodeId> acted;
  std::vector<std::int64_t> queued_at(n, -1);
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (release[static_cast<std::size_t>(v)] == 0) {
      queued_at[static_cast<std::size_t>(v)] = 1;
      next_wake.push_back(v);
    }
  }

  // --- Pattern detection state --------------------------------------------
  // ring[t % kWindow]: the tick's actions as (node << 1 | is_produce) words,
  // in deterministic processing order; ring_hash: FNV-1a of that list.
  std::vector<std::vector<std::uint32_t>> ring(kWindow);
  std::vector<std::uint64_t> ring_hash(kWindow, 0);
  std::unordered_map<std::uint64_t, HashHits> seen;
  std::int64_t history_start = 1;  // first tick with a valid ring entry
  std::int64_t next_try = 0;
  std::vector<std::int64_t> candidates;

  // Epoch-tagged scratch for period verification.
  std::vector<std::int64_t> dc(n, 0), dp(n, 0), last_move(n, 0);
  std::vector<std::int32_t> node_epoch(n, -1), edge_epoch(edge_count, -1);
  std::vector<std::int64_t> e_cur(edge_count, 0), e_min(edge_count, 0), e_delta(edge_count, 0);
  std::int32_t epoch = 0;
  std::vector<NodeId> touched_nodes;
  std::vector<EdgeId> touched_edges;
  std::vector<EdgeId> tick_edges;

  std::int64_t now = 0;

  // Exact equality of the two adjacent windows of length `period` (hash
  // first, then the action lists themselves, so hash collisions cannot
  // corrupt results). Read-only, so many candidate periods can be screened
  // concurrently.
  const auto periods_equal = [&](std::int64_t period) -> bool {
    for (std::int64_t i = 0; i < period; ++i) {
      const auto a = static_cast<std::size_t>((now - i) % static_cast<std::int64_t>(kWindow));
      const auto b =
          static_cast<std::size_t>((now - period - i) % static_cast<std::int64_t>(kWindow));
      if (ring_hash[a] != ring_hash[b] || ring[a] != ring[b]) {
        return false;
      }
    }
    return true;
  };

  // Attempts to prove that the last L ticks repeat the L before them and to
  // advance m whole periods at once. Conservative: any unproven situation
  // just declines the jump and the engine keeps ticking.
  const auto attempt_jump = [&](std::int64_t period) -> bool {
    if (!periods_equal(period)) return false;

    // Per-node action deltas and per-edge touch sets over the last period.
    ++epoch;
    touched_nodes.clear();
    touched_edges.clear();
    const auto touch_edge = [&](EdgeId e) {
      const auto eidx = static_cast<std::size_t>(e);
      if (edge_epoch[eidx] != epoch) {
        edge_epoch[eidx] = epoch;
        e_cur[eidx] = occupancy[eidx];
        e_min[eidx] = std::numeric_limits<std::int64_t>::max();
        touched_edges.push_back(e);
      }
    };
    for (std::int64_t i = now - period + 1; i <= now; ++i) {
      for (const std::uint32_t a : ring[static_cast<std::size_t>(
               i % static_cast<std::int64_t>(kWindow))]) {
        const auto v = static_cast<NodeId>(a >> 1);
        const auto idx = static_cast<std::size_t>(v);
        if (node_epoch[idx] != epoch) {
          node_epoch[idx] = epoch;
          dc[idx] = 0;
          dp[idx] = 0;
          last_move[idx] = 0;
          touched_nodes.push_back(v);
        }
        if ((a & 1u) != 0) {
          ++dp[idx];
          last_move[idx] = i;  // produce updates finish for every node kind
          for (const EdgeId e : graph.out_edges(v)) touch_edge(e);
        } else {
          ++dc[idx];
          if (profile[idx].is_sink) last_move[idx] = i;  // sink consume = movement
          for (const EdgeId e : graph.in_edges(v)) touch_edge(e);
        }
      }
    }

    // Backward occupancy replay: per touched edge, the net delta per period
    // and the minimum start-of-tick occupancy observed inside the period.
    for (std::int64_t i = now; i > now - period; --i) {
      tick_edges.clear();
      for (const std::uint32_t a : ring[static_cast<std::size_t>(
               i % static_cast<std::int64_t>(kWindow))]) {
        const auto v = static_cast<NodeId>(a >> 1);
        if ((a & 1u) != 0) {
          for (const EdgeId e : graph.out_edges(v)) {
            --e_cur[static_cast<std::size_t>(e)];
            tick_edges.push_back(e);
          }
        } else {
          for (const EdgeId e : graph.in_edges(v)) {
            ++e_cur[static_cast<std::size_t>(e)];
            tick_edges.push_back(e);
          }
        }
      }
      for (const EdgeId e : tick_edges) {
        const auto eidx = static_cast<std::size_t>(e);
        e_min[eidx] = std::min(e_min[eidx], e_cur[eidx]);
      }
    }
    for (const EdgeId e : touched_edges) {
      const auto eidx = static_cast<std::size_t>(e);
      e_delta[eidx] = occupancy[eidx] - e_cur[eidx];
    }

    // Drift checks and the jump length m (in periods).
    std::int64_t m = (options.max_ticks - now) / period;
    bool ok = m >= 1;
    for (const EdgeId e : touched_edges) {
      if (!ok) break;
      const auto eidx = static_cast<std::size_t>(e);
      const std::int64_t d = e_delta[eidx];
      if (setup.capacity[eidx] != kUnbounded) {
        if (d != 0) ok = false;  // FIFO level drifting: full/empty flip ahead
      } else if (d > 0) {
        // Growing memory channel: safe iff it was never observed empty (an
        // empty->nonempty flip could unblock its consumer mid-jump).
        if (e_min[eidx] < 1) ok = false;
      } else if (d < 0) {
        // Draining memory channel: stays nonempty for (min-1)/(-d) periods.
        if (e_min[eidx] < 1) {
          ok = false;
        } else {
          m = std::min(m, (e_min[eidx] - 1) / (-d));
        }
      }
    }
    for (const NodeId v : touched_nodes) {
      if (!ok) break;
      const auto idx = static_cast<std::size_t>(v);
      const TaskProfile& p = profile[idx];
      const std::int64_t total_c = p.total_consume, total_p = p.total_produce;
      const std::int64_t c = consumed[idx], pr = produced[idx];
      const std::int64_t delta_c = dc[idx], delta_p = dp[idx];
      if (delta_c == 0 && delta_p == 0) continue;
      if (p.is_buffer) {
        // A buffer absorbs everything before emitting: it is either still
        // filling or draining, never both within a repeating pattern.
        if (delta_c > 0 && delta_p > 0) {
          ok = false;
          break;
        }
        if (delta_c > 0) m = std::min(m, (total_c - 1 - c) / delta_c);
        if (delta_p > 0) m = std::min(m, (total_p - 1 - pr) / delta_p);
      } else if (total_c == 0) {  // source
        if (delta_c != 0) {
          ok = false;
          break;
        }
        m = std::min(m, (total_p - 1 - pr) / delta_p);
      } else if (total_p == 0) {  // sink
        if (delta_p != 0) {
          ok = false;
          break;
        }
        m = std::min(m, (total_c - 1 - c) / delta_c);
      } else if (pr >= total_p) {  // produce-complete: draining leftover consumes
        if (delta_p != 0) {
          ok = false;
          break;
        }
        m = std::min(m, (total_c - 1 - c) / delta_c);
      } else if (c >= total_c) {  // consume-complete: flushing remaining outputs
        if (delta_c != 0) {
          ok = false;
          break;
        }
        m = std::min(m, (total_p - 1 - pr) / delta_p);
        // Produce gate ceil(j*den/num) <= c must hold up to j = pr + m*dp.
        const std::int64_t headroom = c * p.rate_num - pr * p.rate_den;
        if (headroom < 0) {
          ok = false;
          break;
        }
        m = std::min(m, headroom / (delta_p * p.rate_den));
      } else {  // mid-stream on both sides
        // The ceil gates shift by exactly delta_c iff the deltas sit on the
        // node's rate line; anything else cannot repeat indefinitely.
        if (delta_c <= 0 || delta_p <= 0 || delta_c * p.rate_num != delta_p * p.rate_den) {
          ok = false;
          break;
        }
        m = std::min(m, (total_p - 1 - pr) / delta_p);
        // Keep consume_cap on its ceil branch: cn(pr + m*dp + 1) <= total_c.
        const std::int64_t headroom = total_c * p.rate_num - (pr + 1) * p.rate_den;
        if (headroom < 0) {
          ok = false;
          break;
        }
        m = std::min(m, headroom / (delta_p * p.rate_den));
      }
      if (m < 1) {
        ok = false;
        break;
      }
    }
    if (!ok || m < 1) {
      return false;
    }

    // Commit the jump: m periods advance in O(period stats).
    for (const NodeId v : touched_nodes) {
      const auto idx = static_cast<std::size_t>(v);
      consumed[idx] += m * dc[idx];
      produced[idx] += m * dp[idx];
      if (last_move[idx] > 0) result.finish[idx] = last_move[idx] + m * period;
    }
    for (const EdgeId e : touched_edges) {
      const auto eidx = static_cast<std::size_t>(e);
      occupancy[eidx] += m * e_delta[eidx];
    }
    now += m * period;
    result.ticks_executed = now;
    ++result.bulk_jumps;
    history_start = now + 1;
    seen.clear();
    next_try = now + 1;
    return true;
  };

  // --- Main loop -----------------------------------------------------------
  while (incomplete_pe_tasks > 0 && !next_wake.empty()) {
    ++now;
    if (now > options.max_ticks) {
      result.tick_limit_reached = true;
      break;
    }
    result.ticks_executed = now;
    ++result.live_ticks;
    batch.swap(next_wake);
    next_wake.clear();
    std::sort(batch.begin(), batch.end());  // reference pops (tick, id) min-heap order
    for (const NodeId v : batch) queued_at[static_cast<std::size_t>(v)] = now;
    acted.clear();

    auto& actions = ring[static_cast<std::size_t>(now % static_cast<std::int64_t>(kWindow))];
    actions.clear();

    const auto wake_next = [&](NodeId u) {
      if (queued_at[static_cast<std::size_t>(u)] != now + 1) {
        queued_at[static_cast<std::size_t>(u)] = now + 1;
        next_wake.push_back(u);
      }
    };

    // Phase C: consume steps (reads before writes; freed space lets the
    // producer join this tick, including this tick's consume evaluation).
    const auto join_phase_p = [&](NodeId u) {
      if (queued_at[static_cast<std::size_t>(u)] != now) {
        queued_at[static_cast<std::size_t>(u)] = now;
        batch.push_back(u);
      }
    };
    for (std::size_t bi = 0; bi < batch.size(); ++bi) {
      const NodeId v = batch[bi];
      const auto idx = static_cast<std::size_t>(v);
      if (now <= release[idx] || complete[idx]) continue;
      const TaskProfile& p = profile[idx];
      if (consumed[idx] >= p.consume_cap(produced[idx])) continue;
      const auto ins = graph.in_edges(v);
      bool inputs_ready = !ins.empty();
      for (const EdgeId e : ins) {
        if (occupancy[static_cast<std::size_t>(e)] < 1) {
          inputs_ready = false;
          break;
        }
      }
      if (!inputs_ready) continue;
      for (const EdgeId e : ins) {
        --occupancy[static_cast<std::size_t>(e)];
        join_phase_p(edges[static_cast<std::size_t>(e)].src);
      }
      ++consumed[idx];
      if (p.is_sink) result.finish[idx] = now;
      actions.push_back(static_cast<std::uint32_t>(v) << 1);
      acted.push_back(v);
    }

    // Phase P: produce steps.
    for (const NodeId v : batch) {
      const auto idx = static_cast<std::size_t>(v);
      if (now <= release[idx] || complete[idx]) continue;
      const TaskProfile& p = profile[idx];
      if (produced[idx] >= p.total_produce) continue;
      if (p.consumes_needed(produced[idx] + 1) > consumed[idx]) continue;
      const auto outs = graph.out_edges(v);
      bool space = true;
      for (const EdgeId e : outs) {
        const auto eidx = static_cast<std::size_t>(e);
        if (setup.capacity[eidx] != kUnbounded && occupancy[eidx] >= setup.capacity[eidx]) {
          space = false;
          break;
        }
      }
      if (!space) continue;
      for (const EdgeId e : outs) {
        ++occupancy[static_cast<std::size_t>(e)];
        wake_next(edges[static_cast<std::size_t>(e)].dst);
      }
      ++produced[idx];
      if (result.first_out[idx] == 0) result.first_out[idx] = now;
      result.finish[idx] = now;
      actions.push_back((static_cast<std::uint32_t>(v) << 1) | 1u);
      acted.push_back(v);
    }

    // Progress bookkeeping: completions, barriers, re-arming active tasks.
    for (const NodeId v : acted) {
      const auto idx = static_cast<std::size_t>(v);
      wake_next(v);
      if (!complete[idx] && consumed[idx] >= profile[idx].total_consume &&
          produced[idx] >= profile[idx].total_produce) {
        complete[idx] = true;
        if (!graph.occupies_pe(v)) continue;
        --incomplete_pe_tasks;
        const auto block = static_cast<std::size_t>(schedule.partition.block_of[idx]);
        if (--block_pending[block] == 0 && next_block_to_release < blocks.size() &&
            block + 1 == next_block_to_release) {
          for (const NodeId w : blocks[next_block_to_release]) {
            release[static_cast<std::size_t>(w)] = now;
            wake_next(w);
          }
          ++next_block_to_release;
        }
      }
    }

    // Pattern detection: hash the tick and try every viable period induced
    // by a past tick with the same hash, shortest first.
    std::uint64_t h = kFnvOffset;
    for (const std::uint32_t a : actions) {
      h ^= a;
      h *= kFnvPrime;
    }
    ring_hash[static_cast<std::size_t>(now % static_cast<std::int64_t>(kWindow))] = h;
    if (seen.size() > (1u << 18)) seen.clear();
    bool jumped = false;
    if (!actions.empty() && now >= next_try && incomplete_pe_tasks > 0) {
      if (const auto it = seen.find(h); it != seen.end()) {
        candidates.clear();
        const HashHits& hits = it->second;
        for (std::uint32_t i = 0; i < hits.size(); ++i) {
          const std::int64_t prev = hits.tick[i];
          const std::int64_t period = now - prev;
          if (prev >= history_start && period >= 1 &&
              2 * period <= static_cast<std::int64_t>(kWindow) &&
              now - 2 * period + 1 >= history_start) {
            candidates.push_back(period);
          }
        }
        std::sort(candidates.begin(), candidates.end());
        for (const std::int64_t period : candidates) {
          if (attempt_jump(period)) {
            jumped = true;
            break;
          }
        }
        if (!jumped && !candidates.empty()) next_try = now + candidates.front();
      }
    }
    // A successful jump cleared the hash history; this tick belongs to it.
    if (!jumped) seen[h].push(now);
  }

  if (incomplete_pe_tasks > 0 && !result.tick_limit_reached) {
    result.deadlocked = true;
    for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
      if (graph.occupies_pe(v) && !complete[static_cast<std::size_t>(v)]) {
        result.stuck.push_back(v);
      }
    }
  }
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (graph.occupies_pe(v)) {
      result.makespan = std::max(result.makespan, result.finish[static_cast<std::size_t>(v)]);
    }
  }
  return result;
}

}  // namespace sts::sim_detail
