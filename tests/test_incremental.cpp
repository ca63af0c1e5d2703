// Incremental rescheduling coverage: canonical partition fingerprints must be
// invariant under node-id renumbering (fuzzed permutations), graph-edit lists
// must round-trip (edit + undo == base, bit-for-bit), fragment assembly must
// reproduce a cold schedule's result_fingerprint for every registry
// scheduler, and the delta request path (base_key + edits) through
// ScheduleService / ShardRouter must equal a cold schedule of the edited
// graph while reusing every untouched partition's fragment.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph_edit.hpp"
#include "graph/serialization.hpp"
#include "graph/task_graph.hpp"
#include "paper_examples.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/result_fingerprint.hpp"
#include "pipeline/subgraph_cache.hpp"
#include "service/request.hpp"
#include "service/schedule_service.hpp"
#include "service/shard_router.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

/// Renumbers `g` so new node j is old node order[j], preserving kinds, names,
/// declared outputs, and the global edge insertion order (which preserves
/// each node's out-edge insertion order — the part the canonical form pins).
TaskGraph renumber(const TaskGraph& g, const std::vector<NodeId>& order) {
  std::vector<NodeId> new_id(g.node_count());
  for (std::size_t j = 0; j < order.size(); ++j) {
    new_id[static_cast<std::size_t>(order[j])] = static_cast<NodeId>(j);
  }
  TaskGraph out;
  for (std::size_t j = 0; j < order.size(); ++j) {
    const NodeId v = order[j];
    switch (g.kind(v)) {
      case NodeKind::kSource:
        out.add_source(g.declared_output(v), g.name(v));
        break;
      case NodeKind::kCompute: {
        const NodeId lv = out.add_compute(g.name(v));
        if (g.declared_output(v) > 0) out.declare_output(lv, g.declared_output(v));
        break;
      }
      case NodeKind::kBuffer: {
        const NodeId lv = out.add_buffer(g.name(v));
        if (g.declared_output(v) > 0) out.declare_output(lv, g.declared_output(v));
        break;
      }
      case NodeKind::kSink:
        out.add_sink(g.name(v));
        break;
    }
  }
  for (EdgeId e = 0; static_cast<std::size_t>(e) < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    out.add_edge(new_id[static_cast<std::size_t>(edge.src)],
                 new_id[static_cast<std::size_t>(edge.dst)], edge.volume);
  }
  return out;
}

/// True when the structural refinement separated every node of every
/// partition (no tied hashes). Tied families fall back to original-id order
/// — documented to possibly miss the cache under renumbering — so the strict
/// invariance assertions only apply to separated graphs.
bool wl_separated(const TaskGraph& g) {
  const CanonicalPartitionIndex index = canonical_partition_index(g);
  for (std::int32_t c = 0; c < index.count; ++c) {
    const auto nodes = index.nodes(c);
    std::vector<std::uint64_t> hashes;
    hashes.reserve(nodes.size());
    for (const NodeId v : nodes) hashes.push_back(index.node_hash[static_cast<std::size_t>(v)]);
    std::sort(hashes.begin(), hashes.end());
    if (std::adjacent_find(hashes.begin(), hashes.end()) != hashes.end()) return false;
  }
  return true;
}

/// Sorted multiset of the graph's canonical partition forms — the
/// renumbering-invariant identity of its connected partitions.
std::vector<std::string> partition_forms(const TaskGraph& g) {
  const CanonicalPartitionIndex index = canonical_partition_index(g);
  std::vector<std::string> forms;
  forms.reserve(static_cast<std::size_t>(index.count));
  for (std::int32_t c = 0; c < index.count; ++c) {
    forms.push_back(canonical_partition_form(g, index, c));
  }
  std::sort(forms.begin(), forms.end());
  return forms;
}

/// A multi-component graph: several random layered components with
/// heterogeneous volumes (WL-separable, so canonicalization is stable under
/// permutation), built as one graph.
TaskGraph multi_component_graph(int components, std::uint64_t seed) {
  TaskGraph g;
  for (int c = 0; c < components; ++c) {
    LayeredSpec spec;
    spec.layers = 3 + c % 3;
    spec.width = 2 + c % 4;
    spec.edge_probability = 0.3;
    const TaskGraph part = make_random_layered(spec, seed + static_cast<std::uint64_t>(c));
    const auto base = static_cast<NodeId>(g.node_count());
    for (NodeId v = 0; static_cast<std::size_t>(v) < part.node_count(); ++v) {
      switch (part.kind(v)) {
        case NodeKind::kSource:
          g.add_source(part.declared_output(v));
          break;
        case NodeKind::kCompute: {
          const NodeId nv = g.add_compute();
          if (part.declared_output(v) > 0) g.declare_output(nv, part.declared_output(v));
          break;
        }
        case NodeKind::kBuffer: {
          const NodeId nv = g.add_buffer();
          if (part.declared_output(v) > 0) g.declare_output(nv, part.declared_output(v));
          break;
        }
        case NodeKind::kSink:
          g.add_sink();
          break;
      }
    }
    for (EdgeId e = 0; static_cast<std::size_t>(e) < part.edge_count(); ++e) {
      const Edge& edge = part.edge(e);
      g.add_edge(base + edge.src, base + edge.dst, edge.volume);
    }
  }
  return g;
}

/// First seed at or after `seed` whose multi_component_graph the refinement
/// fully separates — tests asserting strict fragment reuse start from a
/// deterministic separated instance instead of hoping about one seed.
TaskGraph separated_multi_component_graph(int components, std::uint64_t seed) {
  for (std::uint64_t s = seed; s < seed + 64; ++s) {
    TaskGraph g = multi_component_graph(components, s);
    if (wl_separated(g)) return g;
  }
  throw std::logic_error("no separated instance in 64 seeds — generator changed?");
}

/// The canonicity-safe one-node retune: rescale the declared output of the
/// first exit compute node (no out-edges, so no edge volume must agree).
/// Touches exactly one partition; every other partition's form is unchanged.
std::vector<GraphEdit> retune_exit(const TaskGraph& g, std::int64_t factor) {
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    if (g.kind(v) == NodeKind::kCompute && g.out_degree(v) == 0 && g.declared_output(v) > 0) {
      return {GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kCompute, v, -1, -1,
                        g.declared_output(v) * factor, ""}};
    }
  }
  throw std::logic_error("retune_exit: graph has no exit compute node");
}

// ------------------------------------------------- canonical partition index

TEST(CanonicalPartitionIndex, ComponentsPartitionTheNodeSet) {
  const TaskGraph g = multi_component_graph(4, 11);
  const CanonicalPartitionIndex index = canonical_partition_index(g);
  // At least the 4 requested components; layer-0 sources nobody picked as a
  // predecessor stay isolated and add singleton partitions.
  EXPECT_GE(index.count, 4);
  std::set<NodeId> seen;
  for (std::int32_t c = 0; c < index.count; ++c) {
    for (const NodeId v : index.nodes(c)) {
      EXPECT_EQ(index.component[static_cast<std::size_t>(v)], c);
      EXPECT_TRUE(seen.insert(v).second) << "node " << v << " listed twice";
    }
  }
  EXPECT_EQ(seen.size(), g.node_count());
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    const std::int32_t c = index.component[static_cast<std::size_t>(v)];
    const auto nodes = index.nodes(c);
    const auto at = nodes.begin() + index.rank[static_cast<std::size_t>(v)];
    EXPECT_EQ(*at, v) << "rank must be the node's position in its component order";
  }
}

TEST(CanonicalPartitionIndex, MaterializedPartitionRecanonicalizesToItself) {
  const TaskGraph g = multi_component_graph(3, 23);
  const CanonicalPartitionIndex index = canonical_partition_index(g);
  for (std::int32_t c = 0; c < index.count; ++c) {
    const std::string form = canonical_partition_form(g, index, c);
    const TaskGraph local = materialize_partition(g, index, c);
    const CanonicalPartitionIndex local_index = canonical_partition_index(local);
    ASSERT_EQ(local_index.count, 1);
    EXPECT_EQ(canonical_partition_form(local, local_index, 0), form)
        << "re-canonicalizing a materialized partition must be the identity";
  }
}

TEST(CanonicalPartitionIndex, FormsInvariantUnderFuzzedPermutations) {
  std::mt19937 rng(20230807);
  int separated = 0;
  for (int round = 0; round < 12; ++round) {
    const TaskGraph g = multi_component_graph(2 + round % 4, 100 + static_cast<std::uint64_t>(round));
    // Tied structural hashes (symmetric twins) legitimately break invariance
    // (documented fallback to original-id order), so only separated graphs
    // carry the strict assertion.
    if (!wl_separated(g)) continue;
    ++separated;
    const std::vector<std::string> base_forms = partition_forms(g);
    std::vector<NodeId> order(g.node_count());
    std::iota(order.begin(), order.end(), 0);
    for (int p = 0; p < 3; ++p) {
      std::shuffle(order.begin(), order.end(), rng);
      const TaskGraph permuted = renumber(g, order);
      EXPECT_EQ(partition_forms(permuted), base_forms)
          << "round " << round << " permutation " << p
          << ": canonical partition forms must not depend on node numbering";
    }
  }
  EXPECT_GE(separated, 6) << "refinement should separate most random layered graphs";
}

TEST(CanonicalPartitionIndex, PermutedGraphReusesEveryFragment) {
  const TaskGraph g = separated_multi_component_graph(4, 77);
  const auto n = static_cast<std::uint64_t>(canonical_partition_index(g).count);
  std::mt19937 rng(99);
  std::vector<NodeId> order(g.node_count());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  const TaskGraph permuted = renumber(g, order);

  MachineConfig machine;
  machine.num_pes = 4;
  SubgraphCache cache;
  const ScheduleResult first = schedule_with_subgraph_cache("streaming-rlx", g, machine, cache);
  const SubgraphCache::Stats after_first = cache.stats();
  EXPECT_EQ(after_first.partition_misses, n);
  EXPECT_EQ(after_first.partition_hits, 0u);

  const ScheduleResult second =
      schedule_with_subgraph_cache("streaming-rlx", permuted, machine, cache);
  const SubgraphCache::Stats after_second = cache.stats();
  EXPECT_EQ(after_second.partition_misses, n) << "a renumbered graph must be all hits";
  EXPECT_EQ(after_second.partition_hits, n);
  EXPECT_EQ(after_second.fragments_assembled, 2 * n);

  EXPECT_EQ(result_fingerprint(second),
            result_fingerprint(schedule_by_name("streaming-rlx", permuted, machine)))
      << "fragments reused across a renumbering must still assemble the"
         " permuted graph's own cold schedule";
  EXPECT_EQ(result_fingerprint(first),
            result_fingerprint(schedule_by_name("streaming-rlx", g, machine)));
}

// -------------------------------------------------------- canonicalization memo

void expect_same_index(const CanonicalPartitionIndex& a, const CanonicalPartitionIndex& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.component, b.component);
  EXPECT_EQ(a.node_hash, b.node_hash);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.offsets, b.offsets);
}

TEST(PartitionCanonMemo, MemoPathMatchesPlainPathColdAndWarm) {
  for (int components = 1; components <= 5; ++components) {
    const TaskGraph g = multi_component_graph(components, 500 + static_cast<std::uint64_t>(components));
    const CanonicalPartitionIndex plain = canonical_partition_index(g);
    PartitionCanonMemo memo;
    std::vector<std::shared_ptr<const PartitionCanonMemo::Ranks>> entries;
    // Cold memo: every partition misses, result must still be identical.
    expect_same_index(canonical_partition_index(g, &memo, &entries), plain);
    const auto pcount = static_cast<std::uint64_t>(plain.count);
    ASSERT_EQ(entries.size(), pcount);
    for (std::int32_t c = 0; c < plain.count; ++c) {
      ASSERT_NE(entries[static_cast<std::size_t>(c)], nullptr);
      EXPECT_EQ(entries[static_cast<std::size_t>(c)]->form,
                canonical_partition_form(g, plain, c))
          << "memo entries must carry the exact fragment-cache key material";
    }
    EXPECT_EQ(memo.stats().misses, pcount);
    // Warm memo: every partition hits, result must still be identical.
    expect_same_index(canonical_partition_index(g, &memo, &entries), plain);
    EXPECT_EQ(memo.stats().hits, pcount);
    EXPECT_EQ(memo.stats().misses, pcount);
  }
}

TEST(PartitionCanonMemo, WarmMemoTransfersAcrossRenumbering) {
  const TaskGraph g = separated_multi_component_graph(4, 311);
  PartitionCanonMemo memo;
  (void)canonical_partition_index(g, &memo);
  const auto pcount = memo.stats().misses;

  std::mt19937 rng(17);
  std::vector<NodeId> order(g.node_count());
  std::iota(order.begin(), order.end(), 0);
  for (int p = 0; p < 3; ++p) {
    std::shuffle(order.begin(), order.end(), rng);
    const TaskGraph permuted = renumber(g, order);
    // The permuted graph's partitions carry different original ids, but the
    // raw positional content keys are id-invariant only when ascending-id
    // order is preserved inside each partition — a global shuffle usually
    // breaks that, so hits are not guaranteed here. What IS guaranteed: the
    // memo path equals the plain path on every graph, warm or not.
    expect_same_index(canonical_partition_index(permuted, &memo),
                      canonical_partition_index(permuted));
  }

  // An id-shift (append a fresh component in front of nothing — ids of the
  // original graph shift by the new component's node count when prepended) is
  // the delta regime the memo exists for: same ascending-id order per
  // partition, shifted ids. Rebuild g's components at an offset and expect
  // full reuse.
  TaskGraph shifted;
  shifted.add_source(7);  // one extra singleton partition in front
  const auto base = static_cast<NodeId>(shifted.node_count());
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    switch (g.kind(v)) {
      case NodeKind::kSource:
        shifted.add_source(g.declared_output(v));
        break;
      case NodeKind::kCompute: {
        const NodeId nv = shifted.add_compute();
        if (g.declared_output(v) > 0) shifted.declare_output(nv, g.declared_output(v));
        break;
      }
      case NodeKind::kBuffer: {
        const NodeId nv = shifted.add_buffer();
        if (g.declared_output(v) > 0) shifted.declare_output(nv, g.declared_output(v));
        break;
      }
      case NodeKind::kSink:
        shifted.add_sink();
        break;
    }
  }
  for (EdgeId e = 0; static_cast<std::size_t>(e) < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    shifted.add_edge(base + edge.src, base + edge.dst, edge.volume);
  }
  const std::uint64_t hits_before = memo.stats().hits;
  expect_same_index(canonical_partition_index(shifted, &memo),
                    canonical_partition_index(shifted));
  EXPECT_GE(memo.stats().hits - hits_before, pcount)
      << "an id-shifted copy of every partition must hit the memo";
}

TEST(PartitionCanonMemo, EvictionKeepsWeightWithinCapacity) {
  PartitionCanonMemo memo(8);  // tiny: only a few partitions fit
  for (int round = 0; round < 6; ++round) {
    const TaskGraph g = multi_component_graph(3, 900 + static_cast<std::uint64_t>(round));
    expect_same_index(canonical_partition_index(g, &memo), canonical_partition_index(g));
    EXPECT_LE(memo.total_weight(), memo.capacity());
  }
  EXPECT_LE(memo.size(), memo.capacity());
}

// ---------------------------------------------------------------- graph edits

TEST(GraphEdit, EditUndoRoundTripsToTheBase) {
  const TaskGraph base = multi_component_graph(3, 5);
  const std::string base_fp = canonical_fingerprint(base);
  const std::vector<std::string> base_forms = partition_forms(base);

  // Pick a real edge to retune there-and-back.
  ASSERT_GT(base.edge_count(), 0u);
  const Edge& e0 = base.edge(0);

  const std::vector<std::pair<std::vector<GraphEdit>, const char*>> round_trips = {
      {{GraphEdit{GraphEdit::Op::kSetEdgeVolume, NodeKind::kCompute, -1, e0.src, e0.dst,
                  e0.volume * 2, ""},
        GraphEdit{GraphEdit::Op::kSetEdgeVolume, NodeKind::kCompute, -1, e0.src, e0.dst,
                  e0.volume, ""}},
       "set_edge_volume there and back"},
      {{GraphEdit{GraphEdit::Op::kAddNode, NodeKind::kSource, -1, -1, -1, 8, "tmp"},
        GraphEdit{GraphEdit::Op::kAddNode, NodeKind::kSink, -1, -1, -1, 0, ""},
        GraphEdit{GraphEdit::Op::kAddEdge, NodeKind::kCompute, -1,
                  static_cast<NodeId>(base.node_count()),
                  static_cast<NodeId>(base.node_count() + 1), 8, ""},
        GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute,
                  static_cast<NodeId>(base.node_count() + 1), -1, -1, 0, ""},
        GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute,
                  static_cast<NodeId>(base.node_count()), -1, -1, 0, ""}},
       "add a component then remove it"},
  };

  for (const auto& [edits, what] : round_trips) {
    const TaskGraph edited = apply_graph_edits(base, edits);
    EXPECT_EQ(canonical_fingerprint(edited), base_fp) << what;
    EXPECT_EQ(partition_forms(edited), base_forms) << what;
  }
}

TEST(GraphEdit, EditedPartitionMissesUntouchedPartitionsHit) {
  const TaskGraph base = separated_multi_component_graph(4, 31);
  const auto n = static_cast<std::uint64_t>(canonical_partition_index(base).count);
  const TaskGraph edited = apply_graph_edits(base, retune_exit(base, 2));

  MachineConfig machine;
  machine.num_pes = 4;
  SubgraphCache cache;
  (void)schedule_with_subgraph_cache("streaming-rlx", base, machine, cache);
  const ScheduleResult delta =
      schedule_with_subgraph_cache("streaming-rlx", edited, machine, cache, /*delta=*/true);
  const SubgraphCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.partition_hits, n - 1) << "only the edited partition may miss";
  EXPECT_EQ(stats.partition_misses, n + 1);  // n cold + 1 invalidated
  EXPECT_EQ(stats.delta_invalidated, 1u);
  EXPECT_EQ(result_fingerprint(delta),
            result_fingerprint(schedule_by_name("streaming-rlx", edited, machine)));
}

TEST(GraphEdit, JsonRoundTripsEveryOp) {
  const std::vector<GraphEdit> edits = {
      GraphEdit{GraphEdit::Op::kAddNode, NodeKind::kSource, -1, -1, -1, 16, "s"},
      GraphEdit{GraphEdit::Op::kAddNode, NodeKind::kCompute, -1, -1, -1, 0, ""},
      GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute, 3, -1, -1, 0, ""},
      GraphEdit{GraphEdit::Op::kAddEdge, NodeKind::kCompute, -1, 1, 2, 8, ""},
      GraphEdit{GraphEdit::Op::kRemoveEdge, NodeKind::kCompute, -1, 1, 2, 0, ""},
      GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kCompute, 0, -1, -1, 32, ""},
      GraphEdit{GraphEdit::Op::kSetEdgeVolume, NodeKind::kCompute, -1, 0, 1, 4, ""},
  };
  for (const GraphEdit& edit : edits) {
    std::string json;
    append_graph_edit_json(json, edit);
    EXPECT_EQ(graph_edit_from_json(parse_json(json)), edit) << json;
  }
}

TEST(GraphEdit, RejectsInvalidEdits) {
  const TaskGraph base = testing::figure8_graph();
  const std::vector<std::vector<GraphEdit>> bad = {
      {GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute, 99, -1, -1, 0, ""}},
      {GraphEdit{GraphEdit::Op::kRemoveEdge, NodeKind::kCompute, -1, 2, 0, 0, ""}},
      {GraphEdit{GraphEdit::Op::kAddEdge, NodeKind::kCompute, -1, 0, 1, 0, ""}},  // zero volume
      {GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute, 1, -1, -1, 0, ""},
       GraphEdit{GraphEdit::Op::kAddEdge, NodeKind::kCompute, -1, 1, 2, 4, ""}},  // removed src
  };
  for (const auto& edits : bad) {
    EXPECT_THROW((void)apply_graph_edits(base, edits), std::invalid_argument);
  }
}

// ------------------------------------------- in-place edits vs draft rebuild

/// The draft-rebuild materialization that apply_graph_edits replaced, kept
/// verbatim as the reference: every node and edge becomes a draft record,
/// the edits flip and rewrite drafts, and a fresh graph is rebuilt through
/// the public mutators. apply_graph_edits must agree with it record for
/// record, and fail with the same exception type and message.
TaskGraph reference_apply_graph_edits(const TaskGraph& base, std::span<const GraphEdit> edits) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("graph edit: " + what);
  };
  struct NodeDraft {
    NodeKind kind;
    std::string name;
    std::int64_t declared_output;
    bool alive;
  };
  struct EdgeDraft {
    NodeId src;
    NodeId dst;
    std::int64_t volume;
    bool alive;
  };

  std::vector<NodeDraft> nodes;
  for (NodeId v = 0; static_cast<std::size_t>(v) < base.node_count(); ++v) {
    nodes.push_back({base.kind(v), base.name(v), base.declared_output(v), true});
  }
  std::vector<EdgeDraft> edges;
  for (const Edge& edge : base.edges()) edges.push_back({edge.src, edge.dst, edge.volume, true});

  const auto check_alive = [&](NodeId v, const char* role) {
    if (v < 0 || static_cast<std::size_t>(v) >= nodes.size()) {
      fail(std::string(role) + " node " + std::to_string(v) + " out of range");
    }
    if (!nodes[static_cast<std::size_t>(v)].alive) {
      fail(std::string(role) + " node " + std::to_string(v) + " was removed");
    }
  };
  const auto find_edge = [&edges](NodeId src, NodeId dst) -> EdgeDraft* {
    for (EdgeDraft& edge : edges) {
      if (edge.alive && edge.src == src && edge.dst == dst) return &edge;
    }
    return nullptr;
  };

  for (const GraphEdit& edit : edits) {
    switch (edit.op) {
      case GraphEdit::Op::kAddNode:
        if (edit.kind == NodeKind::kSource && edit.volume <= 0) {
          fail("add_node source requires a positive output");
        }
        nodes.push_back({edit.kind, edit.name, edit.volume, true});
        break;
      case GraphEdit::Op::kRemoveNode:
        check_alive(edit.node, "remove_node");
        nodes[static_cast<std::size_t>(edit.node)].alive = false;
        for (EdgeDraft& edge : edges) {
          if (edge.src == edit.node || edge.dst == edit.node) edge.alive = false;
        }
        break;
      case GraphEdit::Op::kAddEdge:
        check_alive(edit.src, "add_edge src");
        check_alive(edit.dst, "add_edge dst");
        edges.push_back({edit.src, edit.dst, edit.volume, true});
        break;
      case GraphEdit::Op::kRemoveEdge: {
        check_alive(edit.src, "remove_edge src");
        check_alive(edit.dst, "remove_edge dst");
        EdgeDraft* edge = find_edge(edit.src, edit.dst);
        if (!edge) {
          fail("remove_edge: no edge " + std::to_string(edit.src) + " -> " +
               std::to_string(edit.dst));
        }
        edge->alive = false;
        break;
      }
      case GraphEdit::Op::kSetOutput:
        check_alive(edit.node, "set_output");
        nodes[static_cast<std::size_t>(edit.node)].declared_output = edit.volume;
        break;
      case GraphEdit::Op::kSetEdgeVolume: {
        check_alive(edit.src, "set_edge_volume src");
        check_alive(edit.dst, "set_edge_volume dst");
        EdgeDraft* edge = find_edge(edit.src, edit.dst);
        if (!edge) {
          fail("set_edge_volume: no edge " + std::to_string(edit.src) + " -> " +
               std::to_string(edit.dst));
        }
        edge->volume = edit.volume;
        break;
      }
    }
  }

  std::vector<NodeId> remap(nodes.size(), -1);
  TaskGraph out;
  for (std::size_t v = 0; v < nodes.size(); ++v) {
    const NodeDraft& draft = nodes[v];
    if (!draft.alive) continue;
    NodeId mapped = -1;
    switch (draft.kind) {
      case NodeKind::kSource:
        if (draft.declared_output <= 0) {
          fail("node " + std::to_string(v) + ": source lost its declared output");
        }
        mapped = out.add_source(draft.declared_output, draft.name);
        break;
      case NodeKind::kCompute:
        mapped = out.add_compute(draft.name);
        if (draft.declared_output > 0) out.declare_output(mapped, draft.declared_output);
        break;
      case NodeKind::kBuffer:
        mapped = out.add_buffer(draft.name);
        if (draft.declared_output > 0) out.declare_output(mapped, draft.declared_output);
        break;
      case NodeKind::kSink:
        mapped = out.add_sink(draft.name);
        break;
    }
    remap[v] = mapped;
  }
  for (const EdgeDraft& edge : edges) {
    if (!edge.alive) continue;
    out.add_edge(remap[static_cast<std::size_t>(edge.src)],
                 remap[static_cast<std::size_t>(edge.dst)], edge.volume);
  }
  return out;
}

/// The outcome of one materialization: the graph, or the exception's type
/// and message.
struct Materialized {
  std::optional<TaskGraph> graph;
  std::string error_type;
  std::string error;
};

template <typename Apply>
Materialized materialize_with(Apply apply) {
  Materialized out;
  try {
    out.graph = apply();
  } catch (const std::invalid_argument& e) {
    out.error_type = "invalid_argument";
    out.error = e.what();
  } catch (const std::out_of_range& e) {
    out.error_type = "out_of_range";
    out.error = e.what();
  } catch (const std::exception& e) {
    out.error_type = "exception";
    out.error = e.what();
  }
  return out;
}

/// Record-for-record comparison: kinds, names, declared outputs, and the
/// edges in order.
void expect_same_records(const TaskGraph& got, const TaskGraph& want, const std::string& what) {
  ASSERT_EQ(got.node_count(), want.node_count()) << what;
  ASSERT_EQ(got.edge_count(), want.edge_count()) << what;
  for (NodeId v = 0; static_cast<std::size_t>(v) < want.node_count(); ++v) {
    EXPECT_EQ(got.kind(v), want.kind(v)) << what << " node " << v;
    EXPECT_EQ(got.name(v), want.name(v)) << what << " node " << v;
    EXPECT_EQ(got.declared_output(v), want.declared_output(v)) << what << " node " << v;
  }
  for (EdgeId e = 0; static_cast<std::size_t>(e) < want.edge_count(); ++e) {
    EXPECT_EQ(got.edge(e).src, want.edge(e).src) << what << " edge " << e;
    EXPECT_EQ(got.edge(e).dst, want.edge(e).dst) << what << " edge " << e;
    EXPECT_EQ(got.edge(e).volume, want.edge(e).volume) << what << " edge " << e;
  }
  EXPECT_EQ(canonical_fingerprint(got), canonical_fingerprint(want)) << what;
}

/// Compares apply_graph_edits with the reference on one edit list; returns
/// whether the list materialized.
bool expect_matches_reference(const TaskGraph& base, const std::vector<GraphEdit>& edits,
                              const std::string& what) {
  const Materialized got = materialize_with([&] { return apply_graph_edits(base, edits); });
  const Materialized want =
      materialize_with([&] { return reference_apply_graph_edits(base, edits); });
  EXPECT_EQ(got.error_type, want.error_type) << what << ": " << got.error << " / " << want.error;
  EXPECT_EQ(got.error, want.error) << what;
  if (got.graph && want.graph) expect_same_records(*got.graph, *want.graph, what);
  return want.graph.has_value();
}

std::string describe(const std::vector<GraphEdit>& edits) {
  std::string out;
  for (const GraphEdit& edit : edits) {
    append_graph_edit_json(out, edit);
    out += ' ';
  }
  return out;
}

/// A random edit list over all six ops, built through the C++ API (so
/// volumes may be non-positive, which JSON parsing would refuse). Node ids
/// are drawn one past the live id space, so out-of-range and removed nodes
/// come up; edge endpoints mostly name real edges, so edge ops mostly hit.
std::vector<GraphEdit> random_edits(const TaskGraph& base, Prng& rng) {
  std::vector<GraphEdit> edits;
  auto ids = static_cast<std::int64_t>(base.node_count());
  const auto node = [&] { return static_cast<NodeId>(rng.uniform_int(0, ids)); };
  const auto volume = [&] { return rng.uniform_int(-2, 24); };
  const std::int64_t count = rng.uniform_int(1, 8);
  for (std::int64_t i = 0; i < count; ++i) {
    GraphEdit edit;
    edit.op = static_cast<GraphEdit::Op>(rng.uniform_int(0, 5));
    switch (edit.op) {
      case GraphEdit::Op::kAddNode:
        edit.kind = static_cast<NodeKind>(rng.uniform_int(0, 3));
        edit.volume = volume();
        edit.name = "n" + std::to_string(ids);
        ++ids;
        break;
      case GraphEdit::Op::kRemoveNode:
      case GraphEdit::Op::kSetOutput:
        edit.node = node();
        edit.volume = volume();
        break;
      case GraphEdit::Op::kAddEdge:
      case GraphEdit::Op::kRemoveEdge:
      case GraphEdit::Op::kSetEdgeVolume:
        if (base.edge_count() > 0 && rng.uniform() < 0.7) {
          const Edge& e = base.edge(static_cast<EdgeId>(
              rng.uniform_int(0, static_cast<std::int64_t>(base.edge_count()) - 1)));
          edit.src = e.src;
          edit.dst = e.dst;
        } else {
          edit.src = node();
          edit.dst = node();
        }
        edit.volume = volume();
        break;
    }
    edits.push_back(edit);
  }
  return edits;
}

/// Bases for the differential suites: the Sec. 7.1 topologies plus fuzzed
/// random layered graphs.
std::vector<TaskGraph> differential_bases() {
  std::vector<TaskGraph> bases = {
      make_chain(8, 3),  make_fft(8, 5), make_gaussian_elimination(5, 7),
      make_cholesky(3, 9), testing::figure8_graph(), testing::buffer_split_example(),
  };
  for (std::uint64_t seed = 11; seed < 17; ++seed) {
    LayeredSpec spec;
    spec.layers = 3 + static_cast<int>(seed % 4);
    spec.width = 2 + static_cast<int>(seed % 3);
    bases.push_back(make_random_layered(spec, seed));
  }
  return bases;
}

TEST(GraphEdit, InPlaceMatchesTheDraftRebuildOnFuzzedEditLists) {
  std::vector<TaskGraph> bases = differential_bases();
  // Corner-case bases: a sink carrying a declared output (the rebuild drops
  // it) and a parallel duplicate edge (edge ops address the first alive one).
  TaskGraph with_sink_output = make_chain(6, 21);
  for (NodeId v = 0; static_cast<std::size_t>(v) < with_sink_output.node_count(); ++v) {
    if (with_sink_output.kind(v) == NodeKind::kSink) with_sink_output.declare_output(v, 5);
  }
  bases.push_back(with_sink_output);
  TaskGraph with_duplicate = make_fft(4, 23);
  const Edge first = with_duplicate.edge(0);
  with_duplicate.add_edge(first.src, first.dst, first.volume + 1);
  bases.push_back(with_duplicate);

  Prng rng(0x6564697473ULL);
  std::size_t failures = 0;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    for (int trial = 0; trial < 250; ++trial) {
      const std::vector<GraphEdit> edits = random_edits(bases[b], rng);
      const std::string what = "base " + std::to_string(b) + ": " + describe(edits);
      if (!expect_matches_reference(bases[b], edits, what)) ++failures;
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Both outcomes must be exercised in bulk, or the comparison proves little.
  EXPECT_GT(failures, 200u);
  EXPECT_LT(failures, 250u * bases.size() - 200u);
}

TEST(GraphEdit, InPlaceKeepsTheDraftRebuildCornerCases) {
  TaskGraph chain;
  const NodeId source = chain.add_source(8, "s");
  const NodeId compute = chain.add_compute("a");
  const NodeId middle = chain.add_compute("b");
  const NodeId sink = chain.add_sink("k");
  chain.add_edge(source, compute, 8);
  chain.add_edge(compute, middle, 4);
  chain.add_edge(middle, sink, 4);
  ASSERT_TRUE(chain.validate().empty());
  TaskGraph with_sink_output = chain;
  with_sink_output.declare_output(sink, 9);
  TaskGraph parallel = chain;
  const Edge first = chain.edge(0);
  parallel.add_edge(first.src, first.dst, first.volume + 1);

  const auto set_output = [](NodeId v, std::int64_t volume) {
    return GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kCompute, v, -1, -1, volume, ""};
  };
  const auto edge_op = [](GraphEdit::Op op, const Edge& e, std::int64_t volume) {
    return GraphEdit{op, NodeKind::kCompute, -1, e.src, e.dst, volume, ""};
  };
  const auto remove = [](NodeId v) {
    return GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute, v, -1, -1, 0, ""};
  };
  const std::vector<std::pair<const TaskGraph*, std::vector<GraphEdit>>> cases = {
      {&with_sink_output, {}},                                   // sink output dropped
      {&chain, {set_output(sink, 7)}},                           // likewise when edited
      {&chain, {set_output(compute, 0)}},                        // "no declaration"
      {&chain, {set_output(compute, -4)}},                       // likewise
      {&chain, {set_output(source, -1)}},                        // source loses its output
      {&chain, {set_output(source, -1), set_output(source, 6)}}, // ... unless restored
      {&chain, {set_output(source, -1), remove(source)}},        // ... or removed
      {&chain, {edge_op(GraphEdit::Op::kSetEdgeVolume, first, -3)}},
      {&chain,
       {edge_op(GraphEdit::Op::kSetEdgeVolume, first, -3),
        edge_op(GraphEdit::Op::kRemoveEdge, first, 0)}},
      {&chain, {edge_op(GraphEdit::Op::kAddEdge, Edge{compute, compute, 4}, 4)}},  // self loop
      {&parallel, {edge_op(GraphEdit::Op::kSetEdgeVolume, first, 30)}},  // hits the first
      {&parallel,
       {edge_op(GraphEdit::Op::kRemoveEdge, first, 0),
        edge_op(GraphEdit::Op::kSetEdgeVolume, first, 30)}},  // then the second
      {&parallel,
       {edge_op(GraphEdit::Op::kRemoveEdge, first, 0),
        edge_op(GraphEdit::Op::kRemoveEdge, first, 0),
        edge_op(GraphEdit::Op::kRemoveEdge, first, 0)}},  // no third
      {&chain, {remove(99)}},                                     // out of range
      {&chain, {remove(compute), set_output(compute, 3)}},        // removed
      {&chain, {remove(compute), remove(compute)}},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    expect_matches_reference(*cases[i].first, cases[i].second,
                             "case " + std::to_string(i) + ": " + describe(cases[i].second));
  }
  EXPECT_EQ(apply_graph_edits(with_sink_output, {}).declared_output(sink), 0);
  EXPECT_THROW((void)apply_graph_edits(chain, std::vector<GraphEdit>{set_output(source, 0)}),
               std::invalid_argument);
}

// ------------------------------------------------ scoped validation vs full

/// A random local edit list: set_output and set_edge_volume with positive
/// volumes, often contradicting the graph (retuned outputs on nodes with
/// out-edges, edge volumes that no longer match their siblings).
std::vector<GraphEdit> random_local_edits(const TaskGraph& base, Prng& rng) {
  std::vector<GraphEdit> edits;
  const std::int64_t count = rng.uniform_int(1, 5);
  for (std::int64_t i = 0; i < count; ++i) {
    if (rng.uniform() < 0.5 || base.edge_count() == 0) {
      const auto v = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(base.node_count()) - 1));
      const std::int64_t current = base.output_volume(v);
      const std::int64_t volume = rng.uniform() < 0.4 && current > 0 ? current
                                                                     : rng.uniform_int(1, 40);
      edits.push_back(
          GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kCompute, v, -1, -1, volume, ""});
    } else {
      const Edge& e = base.edge(static_cast<EdgeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(base.edge_count()) - 1)));
      const std::int64_t volume = rng.uniform() < 0.3 ? e.volume : rng.uniform_int(1, 40);
      edits.push_back(GraphEdit{GraphEdit::Op::kSetEdgeVolume, NodeKind::kCompute, -1, e.src,
                                e.dst, volume, ""});
    }
  }
  return edits;
}

TEST(TaskGraphValidate, ScopedValidationMatchesFullValidationOnLocalEdits) {
  Prng rng(0x73636f706564ULL);
  std::size_t invalid = 0;
  std::size_t total = 0;
  for (const TaskGraph& base : differential_bases()) {
    ASSERT_TRUE(base.validate().empty());
    for (int trial = 0; trial < 200; ++trial) {
      const std::vector<GraphEdit> edits = random_local_edits(base, rng);
      const std::optional<std::vector<NodeId>> scope = local_edit_scope(edits);
      ASSERT_TRUE(scope.has_value()) << describe(edits);
      const TaskGraph edited = apply_graph_edits(base, edits);
      const std::vector<std::string> full = edited.validate();
      EXPECT_EQ(edited.validate_nodes(*scope), full) << describe(edits);
      invalid += full.empty() ? 0 : 1;
      ++total;
    }
  }
  // Both verdicts must come up often, or equality proves little.
  EXPECT_GT(invalid, total / 4);
  EXPECT_LT(invalid, total - total / 10);
}

TEST(GraphEdit, LocalScopeCoversOnlyPositiveRetunes) {
  const auto edit = [](GraphEdit::Op op, NodeId node, NodeId src, NodeId dst, std::int64_t v) {
    return GraphEdit{op, NodeKind::kCompute, node, src, dst, v, ""};
  };
  using Op = GraphEdit::Op;
  const std::optional<std::vector<NodeId>> empty = local_edit_scope({});
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
  const std::optional<std::vector<NodeId>> scope =
      local_edit_scope(std::vector<GraphEdit>{edit(Op::kSetOutput, 7, -1, -1, 3),
                                              edit(Op::kSetEdgeVolume, -1, 7, 2, 4),
                                              edit(Op::kSetEdgeVolume, -1, 2, 9, 4)});
  ASSERT_TRUE(scope.has_value());
  EXPECT_EQ(*scope, (std::vector<NodeId>{2, 7, 9}));
  for (const GraphEdit& structural :
       {edit(Op::kAddNode, -1, -1, -1, 3), edit(Op::kRemoveNode, 1, -1, -1, 0),
        edit(Op::kAddEdge, -1, 1, 2, 3), edit(Op::kRemoveEdge, -1, 1, 2, 0),
        edit(Op::kSetOutput, 1, -1, -1, 0), edit(Op::kSetEdgeVolume, -1, 1, 2, -1)}) {
    EXPECT_FALSE(local_edit_scope(std::vector<GraphEdit>{edit(Op::kSetOutput, 7, -1, -1, 3),
                                                         structural})
                     .has_value())
        << describe({structural});
  }
}

// ------------------------------------------------------------------ assembly

TEST(SubgraphAssembly, MatchesColdScheduleForEveryRegistryScheduler) {
  const std::vector<TaskGraph> graphs = {
      testing::figure8_graph(),
      testing::figure9_graph2(),
      testing::buffer_split_example(),
      multi_component_graph(3, 41),
  };
  MachineConfig machine;
  machine.num_pes = 4;
  for (const std::string& scheduler : SchedulerRegistry::instance().names()) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      ScheduleResult cold;
      try {
        cold = schedule_by_name(scheduler, graphs[i], machine);
      } catch (const std::exception&) {
        continue;  // scheduler precondition (e.g. CSDF shape): nothing to compare
      }
      SubgraphCache cache;
      const ScheduleResult assembled =
          schedule_with_subgraph_cache(scheduler, graphs[i], machine, cache);
      EXPECT_EQ(result_fingerprint(assembled), result_fingerprint(cold))
          << scheduler << " on graph " << i;
      // And again, fully from cache: still bit-identical.
      const ScheduleResult cached =
          schedule_with_subgraph_cache(scheduler, graphs[i], machine, cache);
      EXPECT_EQ(result_fingerprint(cached), result_fingerprint(cold))
          << scheduler << " on graph " << i << " (warm)";
    }
  }
}

TEST(SubgraphAssembly, MeshPlacementDegradesToWholeGraphFragment) {
  MachineConfig machine;
  machine.num_pes = 4;
  machine.place_on_mesh = true;
  const TaskGraph g = testing::figure8_graph();
  SubgraphCache cache;
  const ScheduleResult assembled = schedule_with_subgraph_cache("streaming-rlx", g, machine, cache);
  EXPECT_EQ(result_fingerprint(assembled),
            result_fingerprint(schedule_by_name("streaming-rlx", g, machine)));
  EXPECT_EQ(cache.stats().fragments_assembled, 0u) << "mesh placement must not compose";
  EXPECT_EQ(cache.size(), 1u);
}

// ------------------------------------------------------------- delta serving

ScheduleRequest base_request() {
  ScheduleRequest request;
  request.graph = multi_component_graph(3, 67);
  request.scheduler = "streaming-rlx";
  request.machine.num_pes = 4;
  return request;
}


TEST(DeltaRequest, EnvelopeJsonRoundTrips) {
  ScheduleRequest delta;
  delta.base_key = "00ff00ff00ff00ff";
  delta.edits = std::vector<GraphEdit>{GraphEdit{GraphEdit::Op::kSetEdgeVolume, NodeKind::kCompute, -1, 1, 2, 8, ""}};
  delta.scheduler = "streaming-rlx";
  delta.machine.num_pes = 8;
  const std::string json = delta.to_json();
  EXPECT_NE(json.find("\"base_key\": \"00ff00ff00ff00ff\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"edits\": ["), std::string::npos) << json;
  EXPECT_EQ(json.find("\"graph\""), std::string::npos) << "a delta must not carry a graph";
  const ScheduleRequest parsed = ScheduleRequest::from_json(json);
  EXPECT_EQ(parsed.base_key, delta.base_key);
  EXPECT_EQ(parsed.edits, delta.edits);
}

TEST(DeltaRequest, EnvelopeRejectsMalformedDeltas) {
  const std::vector<std::string> bad = {
      // edits without a base_key
      R"({"schema_version": 2, "scheduler": "s", "graph": {"nodes": [], "edges": []},)"
      R"( "edits": []})",
      // base_key plus an inline graph
      R"({"schema_version": 2, "scheduler": "s", "base_key": "aa",)"
      R"( "graph": {"nodes": [], "edges": []}})",
      // base_key needs schema v2
      R"({"schema_version": 1, "scheduler": "s", "base_key": "aabbccddeeff0011"})",
      // empty base_key
      R"({"schema_version": 2, "scheduler": "s", "base_key": ""})",
      // unknown edit op
      R"({"schema_version": 2, "scheduler": "s", "base_key": "aabbccddeeff0011",)"
      R"( "edits": [{"op": "warp"}]})",
  };
  for (const std::string& json : bad) {
    EXPECT_THROW((void)ScheduleRequest::from_json(json), std::invalid_argument) << json;
  }
}

TEST(DeltaRequest, ServiceReschedulesOnlyTheEditedPartition) {
  ServiceConfig config;
  config.num_workers = 2;
  ScheduleService service(config);

  ScheduleRequest base = base_request();
  const std::string digest = base.key_digest();
  const TaskGraph base_graph = base.graph;
  const ScheduleResponse cold = service.schedule(std::move(base));
  ASSERT_TRUE(cold.ok()) << cold.error;

  ScheduleRequest delta;
  delta.base_key = digest;
  delta.edits = retune_exit(base_graph, 2);
  delta.scheduler = "streaming-rlx";
  delta.machine.num_pes = 4;
  const ScheduleResponse warm = service.schedule(std::move(delta));
  ASSERT_TRUE(warm.ok()) << warm.error;

  const TaskGraph edited = apply_graph_edits(base_graph, retune_exit(base_graph, 2));
  EXPECT_EQ(result_fingerprint(*warm.result),
            result_fingerprint(schedule_by_name("streaming-rlx", edited, delta.machine)));

  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.subgraph.partition_hits, 2u) << "untouched partitions must hit";
  EXPECT_EQ(stats.subgraph.partition_misses, 4u);  // 3 cold + 1 invalidated
  EXPECT_EQ(stats.subgraph.delta_invalidated, 1u);
  EXPECT_EQ(stats.subgraph.fragments_assembled, 6u);
  for (const char* field :
       {"\"partition_hits\": 2", "\"partition_misses\": 4", "\"delta_invalidated\": 1",
        "\"fragments_assembled\": 6"}) {
    EXPECT_NE(service.stats_json().find(field), std::string::npos) << field;
  }
}

TEST(DeltaRequest, ChainedDeltasResolveLinkByLink) {
  ScheduleService service(ServiceConfig{2});
  ScheduleRequest base = base_request();
  const TaskGraph base_graph = base.graph;
  const std::string digest = base.key_digest();
  ASSERT_TRUE(service.schedule(std::move(base)).ok());

  // First delta: x2. Its materialized identity is the edited whole-graph
  // request, so compute that digest client-side to chain from it.
  ScheduleRequest delta1;
  delta1.base_key = digest;
  delta1.edits = retune_exit(base_graph, 2);
  delta1.scheduler = "streaming-rlx";
  delta1.machine.num_pes = 4;
  ASSERT_TRUE(service.schedule(std::move(delta1)).ok());

  ScheduleRequest edited1 = base_request();
  edited1.graph = apply_graph_edits(base_graph, retune_exit(base_graph, 2));
  const std::string digest1 = edited1.key_digest();

  ScheduleRequest delta2;
  delta2.base_key = digest1;
  delta2.edits = retune_exit(edited1.graph, 2);
  delta2.scheduler = "streaming-rlx";
  delta2.machine.num_pes = 4;
  const ScheduleResponse chained = service.schedule(std::move(delta2));
  ASSERT_TRUE(chained.ok()) << chained.error;

  const TaskGraph edited2 =
      apply_graph_edits(edited1.graph, retune_exit(edited1.graph, 2));
  MachineConfig machine;
  machine.num_pes = 4;
  EXPECT_EQ(result_fingerprint(*chained.result),
            result_fingerprint(schedule_by_name("streaming-rlx", edited2, machine)));
}

TEST(DeltaRequest, UnknownBaseKeyFailsTheFutureNotTheService) {
  ScheduleService service(ServiceConfig{1});
  ScheduleRequest delta;
  delta.base_key = "deadbeefdeadbeef";
  delta.scheduler = "streaming-rlx";
  const ScheduleResponse response = service.schedule(std::move(delta));
  EXPECT_FALSE(response.ok());
  EXPECT_NE(response.error.find("unknown base_key"), std::string::npos) << response.error;

  // The service stays healthy and balanced: a normal request still serves,
  // and wait_idle does not hang on the failed submission.
  service.wait_idle();
  EXPECT_TRUE(service.schedule(base_request()).ok());
  service.wait_idle();  // schedule() resolves on set_value; counters settle after
  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(DeltaRequest, InvalidCompositionFailsInsteadOfAliasingTheBase) {
  // The cache key hashes *derived* volumes, so an edit list that composes a
  // non-canonical graph (a retuned declared output contradicting its
  // out-edge volume) fingerprints identically to its valid base. Without
  // materialization-time validation the delta would silently return the
  // base's cached result; it must fail the future instead.
  ScheduleService service(ServiceConfig{1});
  ScheduleRequest base = base_request();
  const TaskGraph base_graph = base.graph;
  const std::string digest = base.key_digest();
  ASSERT_TRUE(service.schedule(std::move(base)).ok());

  NodeId src = -1;
  for (NodeId v = 0; static_cast<std::size_t>(v) < base_graph.node_count(); ++v) {
    if (base_graph.kind(v) == NodeKind::kSource && base_graph.out_degree(v) > 0) {
      src = v;
      break;
    }
  }
  ASSERT_GE(src, 0);
  ScheduleRequest delta;
  delta.base_key = digest;
  delta.edits = {GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kSource, src, -1, -1,
                           base_graph.declared_output(src) + 1, ""}};
  delta.scheduler = "streaming-rlx";
  delta.machine.num_pes = 4;
  const ScheduleResponse response = service.schedule(std::move(delta));
  EXPECT_FALSE(response.ok()) << "invalid composition must not alias the base's result";
  EXPECT_NE(response.error.find("invalid graph"), std::string::npos) << response.error;
  service.wait_idle();
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(DeltaRequest, LocalDeltaOnAnInvalidBaseReportsTheFullViolationList) {
  // The base is never validated before its first delta (its own schedule
  // fails, but it is registered all the same). A local delta that touches
  // only valid nodes must still report every violation of the composed
  // graph, exactly as a full validate() lists them.
  ScheduleService service(ServiceConfig{1});
  ScheduleRequest base = base_request();
  NodeId src = -1;
  for (NodeId v = 0; static_cast<std::size_t>(v) < base.graph.node_count(); ++v) {
    if (base.graph.kind(v) == NodeKind::kSource && base.graph.out_degree(v) > 0) {
      src = v;
      break;
    }
  }
  ASSERT_GE(src, 0);
  // A contradicting declared output leaves the key (derived volumes) alone.
  base.graph.declare_output(src, base.graph.declared_output(src) + 3);
  ASSERT_FALSE(base.graph.validate().empty());
  const TaskGraph base_graph = base.graph;
  const std::string digest = base.key_digest();
  EXPECT_FALSE(service.schedule(std::move(base)).ok());

  const std::vector<GraphEdit> edits = retune_exit(base_graph, 2);
  ASSERT_NE(edits.front().node, src);
  ScheduleRequest delta;
  delta.base_key = digest;
  delta.edits = edits;
  delta.scheduler = "streaming-rlx";
  delta.machine.num_pes = 4;
  const ScheduleResponse response = service.schedule(std::move(delta));
  ASSERT_FALSE(response.ok());

  std::string expected = "ScheduleService: edits compose an invalid graph:";
  for (const std::string& v : apply_graph_edits(base_graph, edits).validate()) {
    expected += "\n  - " + v;
  }
  EXPECT_EQ(response.error, expected);
}

/// A canonicity-safe edge retune: an edge whose source is a compute node
/// with no other out-edge and whose destination has no other in-edge, so
/// both endpoints still carry uniform volumes; a declared output on the
/// source is retuned along with it.
std::vector<GraphEdit> retune_edge(const TaskGraph& g, std::int64_t factor) {
  for (const Edge& e : g.edges()) {
    if (g.kind(e.src) == NodeKind::kCompute && g.out_degree(e.src) == 1 &&
        g.in_degree(e.dst) == 1) {
      std::vector<GraphEdit> edits = {GraphEdit{GraphEdit::Op::kSetEdgeVolume, NodeKind::kCompute,
                                                -1, e.src, e.dst, e.volume * factor, ""}};
      if (g.declared_output(e.src) > 0) {
        edits.push_back(GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kCompute, e.src, -1, -1,
                                  e.volume * factor, ""});
      }
      return edits;
    }
  }
  throw std::logic_error("retune_edge: no retunable edge");
}

TEST(DeltaRequest, ChainOfLocalDeltasMatchesColdSchedules) {
  ScheduleService service(ServiceConfig{2});
  ScheduleRequest base = base_request();
  base.graph = make_chain(12, 5);  // has edges retune_edge can scale
  TaskGraph graph = base.graph;
  std::string digest = base.key_digest();
  ASSERT_TRUE(service.schedule(std::move(base)).ok());

  // Three links: the first validates the never-validated base in full, the
  // later ones resolve against deltas registered as valid. The middle link
  // also retunes an edge volume.
  for (int link = 0; link < 3; ++link) {
    std::vector<GraphEdit> edits = retune_exit(graph, 3);
    if (link == 1) {
      for (const GraphEdit& edit : retune_edge(graph, 2)) edits.push_back(edit);
    }
    ScheduleRequest delta;
    delta.base_key = digest;
    delta.edits = edits;
    delta.scheduler = "streaming-rlx";
    delta.machine.num_pes = 4;
    const ScheduleResponse response = service.schedule(std::move(delta));
    ASSERT_TRUE(response.ok()) << "link " << link << ": " << response.error;

    ScheduleRequest materialized = base_request();
    materialized.graph = apply_graph_edits(graph, edits);
    ASSERT_EQ(materialized.graph.edge_count(), graph.edge_count());
    ASSERT_TRUE(materialized.graph.validate().empty());
    EXPECT_EQ(result_fingerprint(*response.result),
              result_fingerprint(
                  schedule_by_name("streaming-rlx", materialized.graph, materialized.machine)))
        << "link " << link;
    graph = materialized.graph;
    digest = materialized.key_digest();
  }
}

TEST(DeltaRequest, ConcurrentSubmittersShareOneRegisteredBase) {
  // Several threads register the same base at once (one registry copy wins,
  // the others are dropped) and race their first local deltas against it
  // (each may validate the base in full and store the outcome). Every delta
  // must still match a cold schedule of its materialized graph.
  constexpr int kThreads = 4;
  ServiceConfig config;
  config.num_workers = 2;
  ScheduleService service(config);
  const ScheduleRequest base = base_request();
  const std::string digest = base.key_digest();
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScheduleRequest copy = base;
      if (!service.schedule(std::move(copy)).ok()) errors[static_cast<std::size_t>(t)] = "base";
      const std::vector<GraphEdit> edits = retune_exit(base.graph, 2 + t);
      ScheduleRequest delta;
      delta.base_key = digest;
      delta.edits = edits;
      delta.scheduler = "streaming-rlx";
      delta.machine.num_pes = 4;
      const ScheduleResponse response = service.schedule(std::move(delta));
      const TaskGraph edited = apply_graph_edits(base.graph, edits);
      if (!response.ok()) {
        errors[static_cast<std::size_t>(t)] = response.error;
      } else if (result_fingerprint(*response.result) !=
                 result_fingerprint(schedule_by_name("streaming-rlx", edited, base.machine))) {
        errors[static_cast<std::size_t>(t)] = "differs from the cold schedule";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[static_cast<std::size_t>(t)], "") << "thread " << t;
  }
}

TEST(DeltaRequest, RouterRoutesDeltaToTheBaseBackend) {
  RouterConfig config;
  config.num_backends = 3;
  ShardRouter router(config);

  ScheduleRequest base = base_request();
  const std::string digest = base.key_digest();
  const std::size_t base_backend = router.backend_for(base);
  const TaskGraph base_graph = base.graph;
  ASSERT_TRUE(router.schedule(std::move(base)).ok());

  ScheduleRequest delta;
  delta.base_key = digest;
  delta.edits = retune_exit(base_graph, 2);
  delta.scheduler = "streaming-rlx";
  delta.machine.num_pes = 4;
  EXPECT_EQ(router.backend_for(delta), base_backend)
      << "a delta must land where its base's registry and fragments are";

  const ScheduleResponse warm = router.schedule(std::move(delta));
  ASSERT_TRUE(warm.ok()) << warm.error;
  const TaskGraph edited = apply_graph_edits(base_graph, retune_exit(base_graph, 2));
  MachineConfig machine;
  machine.num_pes = 4;
  EXPECT_EQ(result_fingerprint(*warm.result),
            result_fingerprint(schedule_by_name("streaming-rlx", edited, machine)));

  // Subgraph counters aggregate across backends (and into the JSON record).
  const ShardRouter::Stats stats = router.stats();
  EXPECT_EQ(stats.total.subgraph.delta_invalidated, 1u);
  EXPECT_EQ(stats.total.subgraph.partition_hits, 2u);
  EXPECT_NE(router.stats_json().find("\"delta_invalidated\": 1"), std::string::npos);
  EXPECT_NE(router.stats_json().find("\"cache_weight\": "), std::string::npos);
}

TEST(DeltaRequest, SubgraphMemoizationCanBeDisabled) {
  ServiceConfig config;
  config.num_workers = 1;
  config.subgraph_cache_capacity = 0;
  ScheduleService service(config);
  EXPECT_EQ(service.subgraph_cache(), nullptr);
  ASSERT_TRUE(service.schedule(base_request()).ok());
  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.subgraph.partition_hits, 0u);
  EXPECT_EQ(stats.subgraph.partition_misses, 0u);

  // Deltas still materialize and schedule — the base registry is independent
  // of subgraph memoization.
  ScheduleRequest base = base_request();
  const std::string digest = base.key_digest();
  const TaskGraph base_graph = base.graph;
  ScheduleRequest delta;
  delta.base_key = digest;
  delta.edits = retune_exit(base_graph, 2);
  delta.scheduler = "streaming-rlx";
  delta.machine.num_pes = 4;
  const ScheduleResponse response = service.schedule(std::move(delta));
  ASSERT_TRUE(response.ok()) << response.error;
}

}  // namespace
}  // namespace sts
