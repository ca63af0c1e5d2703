#pragma once

#include <cstdint>

#include "core/partition.hpp"
#include "core/streaming_schedule.hpp"
#include "graph/task_graph.hpp"

namespace sts {

/// Result of the exhaustive spatial-block partition search.
struct OptimalPartitionResult {
  SpatialPartition partition;      ///< best partition found
  std::int64_t makespan = 0;       ///< its streaming makespan
  std::int64_t explored = 0;       ///< complete partitions evaluated
  bool exhausted = false;          ///< search space fully enumerated
};

/// Exhaustive branch-and-bound search over all valid spatial-block
/// partitions (assignments of PE tasks to temporally ordered blocks of at
/// most `num_pes` tasks, with dependencies pointing forward), scoring each
/// by the exact within-block schedule of Section 5.1.
///
/// The underlying problem is NP-hard (the paper reduces it to sum-of-max
/// partition under a knapsack constraint), so this is only feasible for
/// small graphs — it exists to measure how far the SB-LTS/SB-RLX greedy
/// heuristics are from the true optimum. `max_candidates` bounds the number
/// of complete partitions evaluated; when the bound trips, `exhausted` is
/// false and the result is the best partition seen so far. Ties keep the
/// first partition in enumeration order.
[[nodiscard]] OptimalPartitionResult optimal_partition_exhaustive(
    const TaskGraph& graph, std::int64_t num_pes, std::int64_t max_candidates = 2'000'000);

}  // namespace sts
