#pragma once

#include <cstdint>
#include <vector>

#include "graph/serialization.hpp"
#include "graph/task_graph.hpp"
#include "support/workspace.hpp"

namespace sts {

/// Variants of the greedy spatial-block partitioning heuristic (Algorithm 1).
enum class PartitionVariant : std::uint8_t {
  /// SB-LTS: a node joins the open block only if streaming through it cannot
  /// slow the block's sources (its output volume does not exceed the volume
  /// produced by the block sources it depends on). Blocks may stay under P.
  kLTS,
  /// SB-RLX: when no volume-safe candidate exists, admit the ready node with
  /// the smallest produced volume anyway; every block (except the last) holds
  /// exactly P tasks.
  kRLX,
};

[[nodiscard]] const char* to_string(PartitionVariant variant) noexcept;

/// Partition of a canonical task graph into temporally multiplexed spatial
/// blocks of at most P PE-occupying tasks (paper Section 5).
struct SpatialPartition {
  /// PE-occupying nodes of each block in assignment order (order == PE index).
  std::vector<std::vector<NodeId>> blocks;
  /// Per node: owning block, or -1 for buffer nodes (backing memory, no PE).
  std::vector<std::int32_t> block_of;

  [[nodiscard]] std::size_t block_count() const noexcept { return blocks.size(); }
};

/// Greedy spatial-block partitioning (Algorithm 1). Guarantees by
/// construction that inter-block dependencies are acyclic: a node becomes a
/// candidate only after all its predecessors were assigned.
///
/// Eligibility (see DESIGN.md §2.7): a candidate with no direct (non-buffer)
/// predecessor in the open block always qualifies; otherwise its output
/// volume must not exceed the smallest output volume among the open block's
/// sources it depends on. Ties break by (level, volume, canonical rank).
///
/// Both partitioners process the graph's connected partitions (weakly
/// connected components, see canonical_partition_index) one at a time in
/// minimal-node-id order, sealing the open block at every component
/// boundary: blocks never mix components. Together with canonical-rank
/// (renumbering-invariant) tie-breaking this makes the partition — and every
/// downstream pipeline stage — compose per component, which is what lets the
/// SubgraphCache assemble whole-graph results from per-component fragments
/// bit-identically to a cold run. Pass a precomputed `index` to skip the
/// internal canonicalization (it must describe `graph`).
///
/// The ready set lives in two priority heaps: eligible candidates ordered by
/// (level, volume, rank) and volume-unsafe ones ordered by the SB-RLX
/// fallback order (volume, level, rank). A ready node's eligibility is fixed
/// until the open block closes, and every node is eligible once it does, so
/// each node is classified once and the unsafe heap drains into the eligible
/// one at every block close: O((n + E) log n) per call. Both orders are
/// strict total orders, so each heap top is the unique argmin a full scan of
/// the ready set would pick. When a Workspace is given, its arena backs the
/// builder scratch and the heaps (no per-node heap allocations).
[[nodiscard]] SpatialPartition partition_spatial_blocks(const TaskGraph& graph,
                                                        std::int64_t num_pes,
                                                        PartitionVariant variant,
                                                        Workspace* ws = nullptr,
                                                        const CanonicalPartitionIndex* index = nullptr);

/// Work-ordered partitioning for graphs of element-wise and downsampler
/// nodes (Algorithm 2, Appendix A.2): repeatedly pick the ready node with the
/// highest work (ties by lowest level), cutting blocks every P nodes within
/// each connected partition (same component-sequential order as
/// partition_spatial_blocks). Carries the
/// T_P <= T1/P + T_s_inf + min(n-1, (x-1)(L-1)) guarantee per component.
/// The ready set is one heap under the static (work desc, level, rank)
/// order, so a call costs O((n + E) log n).
[[nodiscard]] SpatialPartition partition_by_work(const TaskGraph& graph, std::int64_t num_pes,
                                                 Workspace* ws = nullptr,
                                                 const CanonicalPartitionIndex* index = nullptr);

/// Checks structural sanity of a partition (used by tests and assertions):
/// every PE node in exactly one block, capacity respected, dependencies flow
/// forward (block_of[u] <= block_of[v] for every edge ignoring buffers).
[[nodiscard]] bool partition_is_valid(const TaskGraph& graph, const SpatialPartition& partition,
                                      std::int64_t num_pes);

}  // namespace sts
