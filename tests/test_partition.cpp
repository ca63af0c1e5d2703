#include "core/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/serialization.hpp"
#include "paper_examples.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

enum class ReferenceMode { kLTS, kRLX, kWork };

/// Reference partitioner: Algorithms 1 and 2 as stated, with a linear argmin
/// scan over the whole ready set on every pick.
/// Same component-sequential driver, eligibility rule and strict total
/// orders as src/core/partition.cpp, with none of its data structures.
SpatialPartition reference_partition(const TaskGraph& graph, std::int64_t num_pes,
                                     ReferenceMode mode) {
  constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();
  const std::size_t n = graph.node_count();
  const std::vector<Rational> level = node_levels(graph);
  const CanonicalPartitionIndex index = canonical_partition_index(graph);
  const std::vector<std::int32_t>& rank = index.rank;
  const auto at = [](NodeId v) { return static_cast<std::size_t>(v); };

  SpatialPartition out;
  out.block_of.assign(n, -1);
  std::vector<std::size_t> pending(n);
  for (NodeId v = 0; at(v) < n; ++v) pending[at(v)] = graph.in_degree(v);
  std::vector<std::int64_t> chain(n, kNone);
  std::vector<NodeId> ready;
  std::int32_t open = -1;

  // Buffer nodes are absorbed as soon as all their producers are placed.
  const auto make_ready = [&](NodeId first) {
    std::vector<NodeId> buffers{first};
    while (!buffers.empty()) {
      const NodeId u = buffers.back();
      buffers.pop_back();
      if (graph.kind(u) != NodeKind::kBuffer) {
        ready.push_back(u);
        continue;
      }
      for (const EdgeId e : graph.out_edges(u)) {
        const NodeId w = graph.edge(e).dst;
        if (--pending[at(w)] == 0) buffers.push_back(w);
      }
    }
  };
  const auto bound_of = [&](NodeId v) {
    std::int64_t bound = kNone;
    for (const EdgeId e : graph.in_edges(v)) {
      const NodeId u = graph.edge(e).src;
      if (graph.kind(u) == NodeKind::kBuffer) continue;
      if (open >= 0 && out.block_of[at(u)] == open) bound = std::min(bound, chain[at(u)]);
    }
    return bound;
  };
  const auto assign = [&](NodeId v) {
    if (open < 0) {
      open = static_cast<std::int32_t>(out.blocks.size());
      out.blocks.emplace_back();
    }
    const std::int64_t bound = bound_of(v);
    chain[at(v)] = bound == kNone ? graph.output_volume(v) : bound;
    out.block_of[at(v)] = open;
    out.blocks[static_cast<std::size_t>(open)].push_back(v);
    ready.erase(std::find(ready.begin(), ready.end(), v));
    for (const EdgeId e : graph.out_edges(v)) {
      const NodeId w = graph.edge(e).dst;
      if (--pending[at(w)] == 0) make_ready(w);
    }
    if (static_cast<std::int64_t>(out.blocks[static_cast<std::size_t>(open)].size()) >=
        num_pes) {
      open = -1;
    }
  };

  const auto eligible_before = [&](NodeId a, NodeId b) {
    if (level[at(a)] != level[at(b)]) return level[at(a)] < level[at(b)];
    if (graph.output_volume(a) != graph.output_volume(b)) {
      return graph.output_volume(a) < graph.output_volume(b);
    }
    return rank[at(a)] < rank[at(b)];
  };
  const auto relaxed_before = [&](NodeId a, NodeId b) {
    if (graph.output_volume(a) != graph.output_volume(b)) {
      return graph.output_volume(a) < graph.output_volume(b);
    }
    if (level[at(a)] != level[at(b)]) return level[at(a)] < level[at(b)];
    return rank[at(a)] < rank[at(b)];
  };
  const auto work_before = [&](NodeId a, NodeId b) {
    if (graph.work(a) != graph.work(b)) return graph.work(a) > graph.work(b);
    if (level[at(a)] != level[at(b)]) return level[at(a)] < level[at(b)];
    return rank[at(a)] < rank[at(b)];
  };

  for (std::int32_t c = 0; c < index.count; ++c) {
    std::size_t left = 0;
    for (const NodeId v : index.nodes(c)) {
      if (graph.occupies_pe(v)) ++left;
    }
    for (const NodeId v : index.nodes(c)) {
      if (pending[at(v)] == 0) make_ready(v);
    }
    while (left > 0) {
      EXPECT_FALSE(ready.empty());
      if (ready.empty()) return out;
      NodeId eligible = kInvalidNode;
      NodeId relaxed = kInvalidNode;
      for (const NodeId v : ready) {
        if (mode == ReferenceMode::kWork) {
          if (eligible == kInvalidNode || work_before(v, eligible)) eligible = v;
          continue;
        }
        const std::int64_t bound = bound_of(v);
        if (bound == kNone || graph.output_volume(v) <= bound) {
          if (eligible == kInvalidNode || eligible_before(v, eligible)) eligible = v;
        } else if (relaxed == kInvalidNode || relaxed_before(v, relaxed)) {
          relaxed = v;
        }
      }
      if (eligible != kInvalidNode) {
        assign(eligible);
      } else if (mode == ReferenceMode::kRLX) {
        assign(relaxed);
      } else {
        open = -1;  // SB-LTS: seal the block; every candidate becomes eligible
        continue;
      }
      --left;
    }
    open = -1;
  }
  return out;
}

/// Checks the heap partitioners against the reference scan on every mode.
void expect_matches_reference(const std::string& name, const TaskGraph& graph,
                              std::int64_t num_pes) {
  Workspace ws;
  const struct {
    ReferenceMode mode;
    SpatialPartition got;
  } runs[] = {
      {ReferenceMode::kLTS,
       partition_spatial_blocks(graph, num_pes, PartitionVariant::kLTS, &ws)},
      {ReferenceMode::kRLX, partition_spatial_blocks(graph, num_pes, PartitionVariant::kRLX)},
      {ReferenceMode::kWork, partition_by_work(graph, num_pes, &ws)},
  };
  for (const auto& run : runs) {
    const SpatialPartition want = reference_partition(graph, num_pes, run.mode);
    EXPECT_EQ(run.got.blocks, want.blocks)
        << name << " pes=" << num_pes << " mode=" << static_cast<int>(run.mode);
    EXPECT_EQ(run.got.block_of, want.block_of)
        << name << " pes=" << num_pes << " mode=" << static_cast<int>(run.mode);
  }
}

TEST(Partition, ChainStaysTogetherWithinCapacity) {
  // Element-wise chains produce equal volumes: SB-LTS keeps them streaming.
  TaskGraph g;
  NodeId prev = g.add_source(16, "s");
  for (int i = 1; i < 8; ++i) {
    const NodeId next = g.add_compute("c" + std::to_string(i));
    g.add_edge(prev, next, 16);
    prev = next;
  }
  g.declare_output(prev, 16);
  const SpatialPartition p = partition_spatial_blocks(g, 8, PartitionVariant::kLTS);
  EXPECT_EQ(p.block_count(), 1u);
  EXPECT_EQ(p.blocks[0].size(), 8u);
}

TEST(Partition, CapacityCutsBlocks) {
  TaskGraph g;
  NodeId prev = g.add_source(16, "s");
  for (int i = 1; i < 8; ++i) {
    const NodeId next = g.add_compute("c" + std::to_string(i));
    g.add_edge(prev, next, 16);
    prev = next;
  }
  g.declare_output(prev, 16);
  const SpatialPartition p = partition_spatial_blocks(g, 3, PartitionVariant::kRLX);
  EXPECT_EQ(p.block_count(), 3u);  // ceil(8/3)
  EXPECT_EQ(p.blocks[0].size(), 3u);
  EXPECT_EQ(p.blocks[1].size(), 3u);
  EXPECT_EQ(p.blocks[2].size(), 2u);
  EXPECT_TRUE(partition_is_valid(g, p, 3));
}

TEST(Partition, LtsRejectsFasterProducerThanSource) {
  // source (4) -> upsampler (16): the upsampler would slow the source, so
  // SB-LTS puts it into its own block; SB-RLX keeps them together.
  TaskGraph g;
  const NodeId s = g.add_source(4, "s");
  const NodeId up = g.add_compute("up");
  g.add_edge(s, up, 4);
  g.declare_output(up, 16);
  const SpatialPartition lts = partition_spatial_blocks(g, 2, PartitionVariant::kLTS);
  EXPECT_EQ(lts.block_count(), 2u);
  const SpatialPartition rlx = partition_spatial_blocks(g, 2, PartitionVariant::kRLX);
  EXPECT_EQ(rlx.block_count(), 1u);
  EXPECT_TRUE(partition_is_valid(g, lts, 2));
  EXPECT_TRUE(partition_is_valid(g, rlx, 2));
}

TEST(Partition, DownsamplersAlwaysJoin) {
  TaskGraph g;
  const NodeId s = g.add_source(64, "s");
  const NodeId d = g.add_compute("d");
  g.add_edge(s, d, 64);
  g.declare_output(d, 4);
  const SpatialPartition p = partition_spatial_blocks(g, 2, PartitionVariant::kLTS);
  EXPECT_EQ(p.block_count(), 1u);
}

TEST(Partition, RlxFillsBlocksToCapacity) {
  // Paper Section 5.2: with SB-RLX all blocks except the last hold P tasks.
  const TaskGraph g = make_fft(16, /*seed=*/7);
  const std::int64_t pes = 16;
  const SpatialPartition p = partition_spatial_blocks(g, pes, PartitionVariant::kRLX);
  for (std::size_t b = 0; b + 1 < p.block_count(); ++b) {
    EXPECT_EQ(p.blocks[b].size(), static_cast<std::size_t>(pes)) << "block " << b;
  }
  EXPECT_TRUE(partition_is_valid(g, p, pes));
}

TEST(Partition, LtsNeverExceedsRlxBlockCount) {
  // SB-RLX partitions into at most as many blocks as SB-LTS.
  for (const std::uint64_t seed : {1u, 4u, 9u, 16u}) {
    const TaskGraph g = make_gaussian_elimination(8, seed);
    const auto lts = partition_spatial_blocks(g, 8, PartitionVariant::kLTS);
    const auto rlx = partition_spatial_blocks(g, 8, PartitionVariant::kRLX);
    EXPECT_LE(rlx.block_count(), lts.block_count()) << "seed " << seed;
  }
}

TEST(Partition, SingleBlockWhenPesCoverGraph) {
  const TaskGraph g = make_cholesky(4, /*seed=*/3);
  const auto tasks = static_cast<std::int64_t>(g.node_count());
  const SpatialPartition p = partition_spatial_blocks(g, tasks, PartitionVariant::kRLX);
  EXPECT_EQ(p.block_count(), 1u);
}

TEST(Partition, BufferNodesCarryNoBlockAndNoCapacity) {
  const TaskGraph g = testing::buffer_split_example();
  const SpatialPartition p = partition_spatial_blocks(g, 5, PartitionVariant::kRLX);
  EXPECT_EQ(p.block_of[3], -1);  // the buffer
  std::size_t placed = 0;
  for (const auto& block : p.blocks) placed += block.size();
  EXPECT_EQ(placed, 5u);  // 5 PE nodes
  EXPECT_TRUE(partition_is_valid(g, p, 5));
}

TEST(Partition, DependenciesFlowForward) {
  for (const std::uint64_t seed : {2u, 5u, 11u}) {
    const TaskGraph g = make_fft(16, seed);
    for (const auto variant : {PartitionVariant::kLTS, PartitionVariant::kRLX}) {
      const SpatialPartition p = partition_spatial_blocks(g, 8, variant);
      EXPECT_TRUE(partition_is_valid(g, p, 8))
          << "seed " << seed << " variant " << to_string(variant);
    }
  }
}

TEST(Partition, ThrowsOnBadPeCount) {
  const TaskGraph g = testing::figure8_graph();
  EXPECT_THROW(partition_spatial_blocks(g, 0, PartitionVariant::kLTS), std::invalid_argument);
}

TEST(PartitionByWork, PicksHeaviestReadyFirst) {
  // Algorithm 2 (Appendix A.2): ready node with the highest work first.
  TaskGraph g;
  const NodeId s = g.add_source(64, "s");
  const NodeId d1 = g.add_compute("d1");  // work 64
  const NodeId d2 = g.add_compute("d2");  // work 16
  g.add_edge(s, d1, 64);
  g.add_edge(d1, d2, 16);
  g.declare_output(d2, 4);
  const SpatialPartition p = partition_by_work(g, 2);
  ASSERT_EQ(p.block_count(), 2u);
  EXPECT_EQ(p.blocks[0], (std::vector<NodeId>{s, d1}));
  EXPECT_EQ(p.blocks[1], (std::vector<NodeId>{d2}));
}

TEST(PartitionByWork, NonIncreasingBlockMaxima) {
  // The proof of Theorem A.2 relies on work being non-increasing along the
  // pick order for elwise+downsampler graphs.
  TaskGraph g;
  const NodeId s = g.add_source(64, "s");
  NodeId left = s;
  NodeId right = s;
  for (int i = 0; i < 3; ++i) {
    const NodeId l = g.add_compute("l" + std::to_string(i));
    g.add_edge(left, l, g.output_volume(left));
    g.declare_output(l, g.input_volume(l) / 2);
    left = l;
    const NodeId r = g.add_compute("r" + std::to_string(i));
    g.add_edge(right, r, g.output_volume(right));
    g.declare_output(r, g.input_volume(r));
    right = r;
  }
  const SpatialPartition p = partition_by_work(g, 3);
  std::int64_t prev_max = std::numeric_limits<std::int64_t>::max();
  for (const auto& block : p.blocks) {
    std::int64_t block_max = 0;
    for (const NodeId v : block) block_max = std::max(block_max, g.work(v));
    EXPECT_LE(block_max, prev_max);
    prev_max = block_max;
  }
  EXPECT_TRUE(partition_is_valid(g, p, 3));
}

TEST(PartitionIsValid, DetectsCorruptAssignments) {
  const TaskGraph g = testing::figure8_graph();
  SpatialPartition p = partition_spatial_blocks(g, 8, PartitionVariant::kRLX);
  ASSERT_TRUE(partition_is_valid(g, p, 8));
  SpatialPartition broken = p;
  broken.block_of[2] = 7;  // points outside any block
  EXPECT_FALSE(partition_is_valid(g, broken, 8));
  SpatialPartition backwards = p;
  if (backwards.blocks.size() == 1) {
    // Fabricate a backwards dependency: split node 0 into a later block.
    backwards.blocks.push_back({0});
    backwards.blocks[0].erase(
        std::find(backwards.blocks[0].begin(), backwards.blocks[0].end(), 0));
    backwards.block_of[0] = 1;
    EXPECT_FALSE(partition_is_valid(g, backwards, 8));
  }
}

TEST(PartitionReferenceOracle, PaperTopologiesMatchTheLinearScan) {
  const struct {
    const char* name;
    TaskGraph graph;
  } cases[] = {
      {"figure6", testing::figure6_graph()},
      {"figure8", testing::figure8_graph()},
      {"figure9-1", testing::figure9_graph1()},
      {"figure9-2", testing::figure9_graph2()},
      {"buffer-split", testing::buffer_split_example()},
      {"chain8", make_chain(8, 3)},
      {"fft32", make_fft(32, 3)},
      {"gaussian16", make_gaussian_elimination(16, 3)},
      {"cholesky8", make_cholesky(8, 3)},
  };
  for (const auto& c : cases) {
    for (const std::int64_t pes : {1, 2, 3, 4, 7, 16, 64}) {
      expect_matches_reference(c.name, c.graph, pes);
    }
  }
}

TEST(PartitionReferenceOracle, FuzzedLayeredGraphsMatchTheLinearScan) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const LayeredSpec spec{/*layers=*/3 + static_cast<int>(seed % 8),
                           /*width=*/2 + static_cast<int>(seed % 11),
                           /*edge_probability=*/0.1 + 0.05 * static_cast<double>(seed % 9),
                           /*max_skip=*/1 + static_cast<int>(seed % 3)};
    const TaskGraph g = make_random_layered(spec, seed);
    for (const std::int64_t pes : {1, 2, 3, 5, 8}) {
      expect_matches_reference("layered seed=" + std::to_string(seed), g, pes);
    }
  }
}

TEST(PartitionReferenceOracle, WideFanInLayeredGraphMatchesTheLinearScan) {
  // 12 layers x 60 nodes: ready sets hundreds wide, so many picks happen
  // with both heaps populated and blocks closing mid-layer.
  const TaskGraph g = make_fanin_layered(12, 60, 3, 17);
  for (const std::int64_t pes : {1, 4, 16, 37, 64, 256}) {
    expect_matches_reference("fanin 12x60", g, pes);
  }
}

}  // namespace
}  // namespace sts
