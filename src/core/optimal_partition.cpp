#include "core/optimal_partition.hpp"

#include <algorithm>
#include <limits>

#include "graph/algorithms.hpp"

namespace sts {

namespace {

/// DFS state: PE tasks assigned in topological order; each task may join any
/// block from the highest block of its predecessors up to one past the
/// current highest non-empty block (capacity permitting). This enumerates
/// every monotone block assignment exactly once up to empty-block renaming.
class Search {
 public:
  Search(const TaskGraph& graph, std::int64_t num_pes, std::int64_t max_candidates)
      : graph_(graph), num_pes_(num_pes), max_candidates_(max_candidates) {
    for (const NodeId v : topological_order(graph)) {
      if (graph.occupies_pe(v)) order_.push_back(v);
    }
    assignment_.assign(graph.node_count(), -1);
    result_.makespan = std::numeric_limits<std::int64_t>::max();
    result_.exhausted = true;
  }

  OptimalPartitionResult run() {
    descend(0, -1);
    if (result_.makespan == std::numeric_limits<std::int64_t>::max()) {
      // Graph without PE tasks: a single empty result.
      result_.makespan = 0;
    }
    return std::move(result_);
  }

 private:
  void descend(std::size_t position, std::int32_t highest_block) {
    if (result_.explored >= max_candidates_) {
      result_.exhausted = false;
      return;
    }
    if (position == order_.size()) {
      evaluate(highest_block);
      return;
    }
    const NodeId v = order_[position];
    // Effective predecessor blocks relay through buffer nodes (which carry
    // no block of their own).
    std::int32_t min_block = 0;
    for (const EdgeId e : graph_.in_edges(v)) {
      min_block = std::max(min_block, effective_block(graph_.edge(e).src));
    }
    const std::int32_t max_block = std::min(highest_block + 1,
                                            static_cast<std::int32_t>(order_.size()) - 1);
    for (std::int32_t block = min_block; block <= max_block; ++block) {
      if (block_sizes_.size() <= static_cast<std::size_t>(block)) {
        block_sizes_.resize(static_cast<std::size_t>(block) + 1, 0);
      }
      if (block_sizes_[static_cast<std::size_t>(block)] >= num_pes_) continue;
      ++block_sizes_[static_cast<std::size_t>(block)];
      assignment_[static_cast<std::size_t>(v)] = block;
      descend(position + 1, std::max(highest_block, block));
      assignment_[static_cast<std::size_t>(v)] = -1;
      --block_sizes_[static_cast<std::size_t>(block)];
    }
  }

  std::int32_t effective_block(NodeId u) const {
    if (graph_.kind(u) != NodeKind::kBuffer) {
      return assignment_[static_cast<std::size_t>(u)];
    }
    std::int32_t best = 0;
    for (const EdgeId e : graph_.in_edges(u)) {
      best = std::max(best, effective_block(graph_.edge(e).src));
    }
    return best;
  }

  /// Scores one complete assignment; the first strict minimum in
  /// enumeration order wins.
  void evaluate(std::int32_t highest_block) {
    ++result_.explored;
    SpatialPartition partition;
    partition.block_of.assign(graph_.node_count(), -1);
    partition.blocks.resize(static_cast<std::size_t>(highest_block) + 1);
    for (const NodeId v : order_) {
      const auto block = assignment_[static_cast<std::size_t>(v)];
      partition.block_of[static_cast<std::size_t>(v)] = block;
      partition.blocks[static_cast<std::size_t>(block)].push_back(v);
    }
    const std::int64_t makespan = schedule_streaming(graph_, partition).makespan;
    if (makespan < result_.makespan) {
      result_.makespan = makespan;
      result_.partition = std::move(partition);
    }
  }

  const TaskGraph& graph_;
  std::int64_t num_pes_;
  std::int64_t max_candidates_;
  std::vector<NodeId> order_;
  std::vector<std::int32_t> assignment_;
  std::vector<std::int64_t> block_sizes_;
  OptimalPartitionResult result_;
};

}  // namespace

OptimalPartitionResult optimal_partition_exhaustive(const TaskGraph& graph,
                                                    std::int64_t num_pes,
                                                    std::int64_t max_candidates) {
  if (num_pes <= 0) throw std::invalid_argument("optimal_partition: num_pes must be > 0");
  Search search(graph, num_pes, max_candidates);
  return search.run();
}

}  // namespace sts
