#include "core/partition.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "graph/algorithms.hpp"
#include "support/rational.hpp"

namespace sts {

namespace {

constexpr std::int64_t kNoConstraint = std::numeric_limits<std::int64_t>::max();

/// Shared machinery of the greedy partitioners: pending-predecessor counts,
/// automatic (block-less) assignment of buffer nodes, block bookkeeping, and
/// a queue of nodes that became ready but were not yet handed to the
/// caller's priority heaps. All O(n) scratch comes from the workspace arena,
/// so building a partition costs no per-node heap allocations (the result
/// containers aside).
class PartitionBuilder {
 public:
  PartitionBuilder(const TaskGraph& graph, std::int64_t num_pes, Workspace& ws)
      : graph_(graph), num_pes_(num_pes),
        pending_in_(ws.arena.alloc_array<std::size_t>(graph.node_count())),
        ready_queue_(ws.arena.alloc_array<NodeId>(graph.node_count())),
        chain_min_(ws.arena.alloc_array<std::int64_t>(graph.node_count())) {
    if (num_pes <= 0) throw std::invalid_argument("partition: num_pes must be > 0");
    partition_.block_of.assign(graph.node_count(), -1);
    for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
      pending_in_[static_cast<std::size_t>(v)] = graph.in_degree(v);
      chain_min_[static_cast<std::size_t>(v)] = kNoConstraint;
      if (graph.occupies_pe(v)) ++remaining_;
    }
  }

  /// Activates one connected partition: its in-degree-0 nodes become ready
  /// (components are edge-closed, so nothing else can be pending-free).
  /// Callers drive components one at a time, so ready nodes only ever belong
  /// to the active one.
  void seed(std::span<const NodeId> nodes) {
    for (const NodeId v : nodes) {
      if (pending_in_[static_cast<std::size_t>(v)] == 0) on_ready(v);
    }
  }

  /// PE nodes that became ready since the last call, in readiness order.
  /// Every node is handed out exactly once.
  [[nodiscard]] std::span<const NodeId> take_newly_ready() noexcept {
    const std::span<const NodeId> fresh =
        std::span<const NodeId>(ready_queue_).subspan(handed_out_, queued_ - handed_out_);
    handed_out_ = queued_;
    return fresh;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return remaining_; }
  [[nodiscard]] bool block_open() const noexcept { return open_block_ >= 0; }

  /// Algorithm 1's volume-safety test against the open block.
  [[nodiscard]] bool eligible(NodeId v) const {
    const std::int64_t bound = source_volume_bound(v);
    return bound == kNoConstraint || graph_.output_volume(v) <= bound;
  }

  void assign(NodeId v) {
    if (open_block_ < 0) {
      open_block_ = static_cast<std::int32_t>(partition_.blocks.size());
      partition_.blocks.emplace_back();
    }
    // Chain value: the smallest block-source volume v depends on; block
    // sources anchor the chain with their own produced volume.
    const std::int64_t bound = source_volume_bound(v);
    chain_min_[static_cast<std::size_t>(v)] =
        bound == kNoConstraint ? graph_.output_volume(v) : bound;
    partition_.block_of[static_cast<std::size_t>(v)] = open_block_;
    partition_.blocks[static_cast<std::size_t>(open_block_)].push_back(v);
    --remaining_;
    release_successors(v);
    if (static_cast<std::int64_t>(
            partition_.blocks[static_cast<std::size_t>(open_block_)].size()) >= num_pes_) {
      close_block();
    }
  }

  void close_block() { open_block_ = -1; }

  [[nodiscard]] SpatialPartition take() {
    // Drop a trailing empty block if one was opened but never filled.
    while (!partition_.blocks.empty() && partition_.blocks.back().empty()) {
      partition_.blocks.pop_back();
    }
    return std::move(partition_);
  }

 private:
  /// Min output volume over the open-block sources `v` transitively depends
  /// on via direct (non-buffer) edges; kNoConstraint if v has no predecessor
  /// in the open block (it would start a fresh stream component).
  [[nodiscard]] std::int64_t source_volume_bound(NodeId v) const {
    std::int64_t bound = kNoConstraint;
    for (const EdgeId e : graph_.in_edges(v)) {
      const NodeId u = graph_.edge(e).src;
      if (graph_.kind(u) == NodeKind::kBuffer) continue;  // memory boundary
      if (open_block_ >= 0 && partition_.block_of[static_cast<std::size_t>(u)] == open_block_) {
        bound = std::min(bound, chain_min_[static_cast<std::size_t>(u)]);
      }
    }
    return bound;
  }

  void on_ready(NodeId v) {
    if (graph_.kind(v) == NodeKind::kBuffer) {
      // Buffer nodes are backing memory, not tasks: absorb them as soon as
      // all producers are placed; they never consume a PE slot.
      release_successors(v);
    } else {
      ready_queue_[queued_++] = v;
    }
  }

  void release_successors(NodeId v) {
    for (const EdgeId e : graph_.out_edges(v)) {
      const NodeId w = graph_.edge(e).dst;
      if (--pending_in_[static_cast<std::size_t>(w)] == 0) on_ready(w);
    }
  }

  const TaskGraph& graph_;
  std::int64_t num_pes_;
  SpatialPartition partition_;
  std::span<std::size_t> pending_in_;
  std::span<NodeId> ready_queue_;  ///< every node that became ready, in order
  std::span<std::int64_t> chain_min_;
  std::size_t queued_ = 0;      ///< ready_queue_ fill
  std::size_t handed_out_ = 0;  ///< ready_queue_ prefix given to the caller
  std::int32_t open_block_ = -1;
  std::size_t remaining_ = 0;
};

/// Binary heap of ready nodes over arena storage of capacity n. `before` is
/// a strict total order; top() is its unique minimum, so popping yields
/// exactly the node a linear argmin scan under the same order would pick.
template <typename Before>
class ReadyHeap {
 public:
  ReadyHeap(std::span<NodeId> storage, Before before)
      : storage_(storage), before_(std::move(before)) {}

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void push(NodeId v) {
    storage_[size_++] = v;
    std::push_heap(storage_.begin(), end(), after());
  }

  NodeId pop() {
    std::pop_heap(storage_.begin(), end(), after());
    return storage_[--size_];
  }

 private:
  [[nodiscard]] auto end() const noexcept {
    return storage_.begin() + static_cast<std::ptrdiff_t>(size_);
  }
  /// std heaps keep the comparator's maximum on top; invert the order.
  [[nodiscard]] auto after() const {
    return [this](NodeId a, NodeId b) { return before_(b, a); };
  }

  std::span<NodeId> storage_;
  Before before_;
  std::size_t size_ = 0;
};

std::size_t pe_node_count(const TaskGraph& graph, std::span<const NodeId> nodes) {
  std::size_t count = 0;
  for (const NodeId v : nodes) {
    if (graph.occupies_pe(v)) ++count;
  }
  return count;
}

}  // namespace

const char* to_string(PartitionVariant variant) noexcept {
  return variant == PartitionVariant::kLTS ? "SB-LTS" : "SB-RLX";
}

SpatialPartition partition_spatial_blocks(const TaskGraph& graph, std::int64_t num_pes,
                                          PartitionVariant variant, Workspace* ws,
                                          const CanonicalPartitionIndex* index) {
  Workspace local;
  Workspace& work = ws ? *ws : local;
  PartitionBuilder builder(graph, num_pes, work);
  const std::vector<Rational> level = node_levels(graph);
  CanonicalPartitionIndex owned_index;
  if (!index) {
    owned_index = canonical_partition_index(graph);
    index = &owned_index;
  }
  const std::vector<std::int32_t>& rank = index->rank;

  // Algorithm 1's primary criterion; ties broken by node level, then
  // produced volume, then canonical rank (deterministic AND invariant under
  // node-id renumbering — candidates are always same-component, so ranks
  // never collide). A strict total order.
  const auto eligible_before = [&](NodeId a, NodeId b) {
    const auto& la = level[static_cast<std::size_t>(a)];
    const auto& lb = level[static_cast<std::size_t>(b)];
    if (la != lb) return la < lb;
    const auto oa = graph.output_volume(a);
    const auto ob = graph.output_volume(b);
    if (oa != ob) return oa < ob;
    return rank[static_cast<std::size_t>(a)] < rank[static_cast<std::size_t>(b)];
  };
  // SB-RLX fallback: least produced volume, then level, then rank.
  const auto relaxed_before = [&](NodeId a, NodeId b) {
    const auto oa = graph.output_volume(a);
    const auto ob = graph.output_volume(b);
    if (oa != ob) return oa < ob;
    const auto& la = level[static_cast<std::size_t>(a)];
    const auto& lb = level[static_cast<std::size_t>(b)];
    if (la != lb) return la < lb;
    return rank[static_cast<std::size_t>(a)] < rank[static_cast<std::size_t>(b)];
  };

  // A ready node's predecessors are all assigned, so its eligibility is
  // fixed from the moment it becomes ready until the open block closes;
  // after the close every predecessor sits in a closed block and it stays
  // eligible for good. Each node is therefore classified once on arrival
  // (eligible -> E, volume-unsafe -> R) and R drains into E at every close:
  // E always holds exactly the ready nodes the scan would find eligible.
  ReadyHeap eligible(work.arena.alloc_array<NodeId>(graph.node_count()), eligible_before);
  ReadyHeap relaxed(work.arena.alloc_array<NodeId>(graph.node_count()), relaxed_before);
  const auto admit_ready = [&] {
    for (const NodeId v : builder.take_newly_ready()) {
      if (builder.eligible(v)) {
        eligible.push(v);
      } else {
        relaxed.push(v);
      }
    }
    if (!builder.block_open()) {
      while (!relaxed.empty()) eligible.push(relaxed.pop());
    }
  };

  for (std::int32_t c = 0; c < index->count; ++c) {
    const std::span<const NodeId> component = index->nodes(c);
    builder.seed(component);
    const std::size_t target = builder.remaining() - pe_node_count(graph, component);
    while (builder.remaining() > target) {
      admit_ready();
      if (!eligible.empty()) {
        builder.assign(eligible.pop());
      } else if (relaxed.empty()) {
        throw std::logic_error("partition: no ready node (cyclic graph?)");
      } else if (variant == PartitionVariant::kRLX) {
        builder.assign(relaxed.pop());
      } else {
        // SB-LTS: nothing safe to add; seal the block and start a fresh one
        // (every candidate is then a block source and becomes eligible).
        builder.close_block();
      }
    }
    // Component boundary: blocks never span components, so the per-component
    // schedule fragments downstream stay independently reusable.
    builder.close_block();
  }
  return builder.take();
}

SpatialPartition partition_by_work(const TaskGraph& graph, std::int64_t num_pes, Workspace* ws,
                                   const CanonicalPartitionIndex* index) {
  Workspace local;
  Workspace& work = ws ? *ws : local;
  PartitionBuilder builder(graph, num_pes, work);
  const std::vector<Rational> level = node_levels(graph);
  CanonicalPartitionIndex owned_index;
  if (!index) {
    owned_index = canonical_partition_index(graph);
    index = &owned_index;
  }
  const std::vector<std::int32_t>& rank = index->rank;

  // Highest work first, ties by lowest level then canonical rank — a strict
  // total order over static keys, so the ready set is a single heap.
  const auto before = [&](NodeId a, NodeId b) {
    const std::int64_t wa = graph.work(a);
    const std::int64_t wb = graph.work(b);
    if (wa != wb) return wa > wb;
    const auto& la = level[static_cast<std::size_t>(a)];
    const auto& lb = level[static_cast<std::size_t>(b)];
    if (la != lb) return la < lb;
    return rank[static_cast<std::size_t>(a)] < rank[static_cast<std::size_t>(b)];
  };
  ReadyHeap ready(work.arena.alloc_array<NodeId>(graph.node_count()), before);

  for (std::int32_t c = 0; c < index->count; ++c) {
    const std::span<const NodeId> component = index->nodes(c);
    builder.seed(component);
    const std::size_t target = builder.remaining() - pe_node_count(graph, component);
    while (builder.remaining() > target) {
      for (const NodeId v : builder.take_newly_ready()) ready.push(v);
      if (ready.empty()) {
        throw std::logic_error("partition_by_work: no ready node (cyclic graph?)");
      }
      builder.assign(ready.pop());  // blocks cut automatically every num_pes nodes
    }
    builder.close_block();  // blocks never span components
  }
  return builder.take();
}

bool partition_is_valid(const TaskGraph& graph, const SpatialPartition& partition,
                        std::int64_t num_pes) {
  if (partition.block_of.size() != graph.node_count()) return false;
  std::vector<std::size_t> seen(partition.blocks.size(), 0);
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    const auto block = partition.block_of[static_cast<std::size_t>(v)];
    if (graph.occupies_pe(v)) {
      if (block < 0 || static_cast<std::size_t>(block) >= partition.blocks.size()) return false;
      ++seen[static_cast<std::size_t>(block)];
    } else if (block != -1) {
      return false;  // buffer nodes carry no block
    }
  }
  for (std::size_t b = 0; b < partition.blocks.size(); ++b) {
    if (partition.blocks[b].empty()) return false;
    if (static_cast<std::int64_t>(partition.blocks[b].size()) > num_pes) return false;
    if (seen[b] != partition.blocks[b].size()) return false;
  }
  // Dependencies must not point backwards across blocks; buffer nodes relay
  // the max block of their producers.
  std::vector<std::int32_t> effective(partition.block_of.begin(), partition.block_of.end());
  for (const NodeId v : topological_order(graph)) {
    const auto idx = static_cast<std::size_t>(v);
    if (graph.kind(v) == NodeKind::kBuffer) {
      std::int32_t max_pred = 0;
      for (const EdgeId e : graph.in_edges(v)) {
        max_pred = std::max(max_pred, effective[static_cast<std::size_t>(graph.edge(e).src)]);
      }
      effective[idx] = max_pred;
      continue;
    }
    for (const EdgeId e : graph.in_edges(v)) {
      if (effective[static_cast<std::size_t>(graph.edge(e).src)] > effective[idx]) return false;
    }
  }
  return true;
}

}  // namespace sts
