#include "baseline/list_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace sts {

std::vector<std::int64_t> bottom_levels(const TaskGraph& graph) {
  std::vector<std::int64_t> bl(graph.node_count(), 0);
  // Reverse Kahn waves: every successor of a node settles first.
  for (const NodeId v : topological_waves(graph, /*reverse=*/true).order) {
    std::int64_t succ_max = 0;
    for (const EdgeId e : graph.out_edges(v)) {
      succ_max = std::max(succ_max, bl[static_cast<std::size_t>(graph.edge(e).dst)]);
    }
    bl[static_cast<std::size_t>(v)] = graph.work(v) + succ_max;
  }
  return bl;
}

ListSchedule schedule_non_streaming(const TaskGraph& graph, std::int64_t num_pes) {
  if (num_pes <= 0) throw std::invalid_argument("schedule_non_streaming: num_pes must be > 0");
  ListSchedule sched;
  sched.entries.assign(graph.node_count(), ListScheduleEntry{});

  const std::vector<std::int64_t> bl = bottom_levels(graph);
  std::vector<NodeId> order = topological_order(graph);
  std::vector<std::size_t> topo_pos(graph.node_count());
  for (std::size_t i = 0; i < order.size(); ++i) {
    topo_pos[static_cast<std::size_t>(order[i])] = i;
  }
  // Descending bottom level is itself a topological order for positive task
  // costs; the topo position settles zero-cost buffer ties.
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const auto ba = bl[static_cast<std::size_t>(a)];
    const auto bb = bl[static_cast<std::size_t>(b)];
    if (ba != bb) return ba > bb;
    return topo_pos[static_cast<std::size_t>(a)] < topo_pos[static_cast<std::size_t>(b)];
  });

  // Per-PE busy intervals, kept sorted by start time for gap (insertion)
  // search.
  struct Interval {
    std::int64_t start;
    std::int64_t finish;
  };
  std::vector<std::vector<Interval>> busy(static_cast<std::size_t>(num_pes));

  for (const NodeId v : order) {
    const auto idx = static_cast<std::size_t>(v);
    std::int64_t ready = 0;
    for (const EdgeId e : graph.in_edges(v)) {
      ready = std::max(ready, sched.entries[static_cast<std::size_t>(graph.edge(e).src)].finish);
    }
    if (!graph.occupies_pe(v)) {
      sched.entries[idx] = ListScheduleEntry{ready, ready, -1};
      continue;
    }
    const std::int64_t duration = graph.work(v);

    std::int64_t best_start = -1;
    std::int32_t best_pe = -1;
    for (std::int32_t pe = 0; pe < num_pes; ++pe) {
      const auto& intervals = busy[static_cast<std::size_t>(pe)];
      // Earliest gap on this PE that fits [start, start+duration) at or after
      // `ready` (insertion slot); falls through to after the last interval.
      // Intervals are non-overlapping and sorted, so everything finishing at
      // or before `ready` can be skipped in O(log k): those intervals only
      // clamp the cursor to at most `ready`, and the lone case where one
      // could itself open a slot (a zero-duration task against a zero-length
      // interval) yields slot == ready, which the remaining scan reproduces.
      std::int64_t cursor = ready;
      std::int64_t slot = -1;
      const auto first = std::partition_point(
          intervals.begin(), intervals.end(),
          [&](const Interval& iv) { return iv.finish <= ready; });
      for (auto it = first; it != intervals.end(); ++it) {
        if (it->start >= cursor + duration) {
          slot = cursor;
          break;
        }
        cursor = std::max(cursor, it->finish);
      }
      if (slot < 0) slot = cursor;
      if (best_start < 0 || slot < best_start) {
        best_start = slot;
        best_pe = pe;
        if (slot == ready) break;  // cannot do better than starting when ready
      }
    }

    auto& intervals = busy[static_cast<std::size_t>(best_pe)];
    const Interval placed{best_start, best_start + duration};
    intervals.insert(
        std::upper_bound(intervals.begin(), intervals.end(), placed,
                         [](const Interval& a, const Interval& b) { return a.start < b.start; }),
        placed);
    sched.entries[idx] = ListScheduleEntry{placed.start, placed.finish, best_pe};
    sched.makespan = std::max(sched.makespan, placed.finish);
  }
  return sched;
}

}  // namespace sts
