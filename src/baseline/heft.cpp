#include "baseline/heft.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace sts {

std::int64_t HeterogeneousSystem::duration(std::int64_t work, std::int64_t pe) const {
  const double speed = pe_speed[static_cast<std::size_t>(pe)];
  if (speed <= 0.0) throw std::invalid_argument("HeterogeneousSystem: non-positive speed");
  return static_cast<std::int64_t>(std::ceil(static_cast<double>(work) / speed));
}

double HeterogeneousSystem::mean_duration(std::int64_t work) const {
  double sum = 0.0;
  for (const double s : pe_speed) sum += static_cast<double>(work) / s;
  return sum / static_cast<double>(pe_speed.size());
}

std::vector<double> upward_ranks(const TaskGraph& graph, const HeterogeneousSystem& system) {
  std::vector<double> rank(graph.node_count(), 0.0);
  // Reverse Kahn waves: every successor of a node settles first.
  for (const NodeId v : topological_waves(graph, /*reverse=*/true).order) {
    double succ_max = 0.0;
    for (const EdgeId e : graph.out_edges(v)) {
      succ_max = std::max(succ_max, rank[static_cast<std::size_t>(graph.edge(e).dst)]);
    }
    rank[static_cast<std::size_t>(v)] = system.mean_duration(graph.work(v)) + succ_max;
  }
  return rank;
}

ListSchedule schedule_heft(const TaskGraph& graph, const HeterogeneousSystem& system) {
  if (system.pe_count() <= 0) throw std::invalid_argument("schedule_heft: no PEs");
  ListSchedule sched;
  sched.entries.assign(graph.node_count(), ListScheduleEntry{});

  const std::vector<double> rank = upward_ranks(graph, system);
  std::vector<NodeId> order = topological_order(graph);
  std::vector<std::size_t> topo_pos(graph.node_count());
  for (std::size_t i = 0; i < order.size(); ++i) {
    topo_pos[static_cast<std::size_t>(order[i])] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const double ra = rank[static_cast<std::size_t>(a)];
    const double rb = rank[static_cast<std::size_t>(b)];
    if (ra != rb) return ra > rb;
    return topo_pos[static_cast<std::size_t>(a)] < topo_pos[static_cast<std::size_t>(b)];
  });

  struct Interval {
    std::int64_t start;
    std::int64_t finish;
  };
  std::vector<std::vector<Interval>> busy(static_cast<std::size_t>(system.pe_count()));

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

    std::int64_t best_finish = -1;
    std::int64_t best_start = 0;
    std::int32_t best_pe = -1;
    for (std::int64_t pe = 0; pe < system.pe_count(); ++pe) {
      const std::int64_t duration = system.duration(graph.work(v), pe);
      const auto& intervals = busy[static_cast<std::size_t>(pe)];
      // Same O(log k) skip as the homogeneous list scheduler: sorted
      // non-overlapping intervals finishing at or before `ready` cannot
      // change the slot this scan finds.
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
      const std::int64_t finish = slot + duration;
      if (best_finish < 0 || finish < best_finish) {
        best_finish = finish;
        best_start = slot;
        best_pe = static_cast<std::int32_t>(pe);
      }
    }

    auto& intervals = busy[static_cast<std::size_t>(best_pe)];
    const Interval placed{best_start, best_finish};
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
