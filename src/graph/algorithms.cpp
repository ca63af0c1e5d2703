#include "graph/algorithms.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace sts {

namespace {

/// Union-find with path halving; small utility local to this TU.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

std::vector<std::size_t> in_degrees(const TaskGraph& graph) {
  std::vector<std::size_t> deg(graph.node_count());
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    deg[static_cast<std::size_t>(v)] = graph.in_degree(v);
  }
  return deg;
}

}  // namespace

bool is_acyclic(const TaskGraph& graph) {
  auto deg = in_degrees(graph);
  std::vector<NodeId> stack;
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (deg[static_cast<std::size_t>(v)] == 0) stack.push_back(v);
  }
  std::size_t seen = 0;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    ++seen;
    for (const EdgeId e : graph.out_edges(u)) {
      const NodeId w = graph.edge(e).dst;
      if (--deg[static_cast<std::size_t>(w)] == 0) stack.push_back(w);
    }
  }
  return seen == graph.node_count();
}

std::vector<NodeId> topological_order(const TaskGraph& graph) {
  auto deg = in_degrees(graph);
  // Min-heap on node id keeps the order deterministic and stable across runs.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (deg[static_cast<std::size_t>(v)] == 0) ready.push(v);
  }
  std::vector<NodeId> order;
  order.reserve(graph.node_count());
  while (!ready.empty()) {
    const NodeId u = ready.top();
    ready.pop();
    order.push_back(u);
    for (const EdgeId e : graph.out_edges(u)) {
      const NodeId w = graph.edge(e).dst;
      if (--deg[static_cast<std::size_t>(w)] == 0) ready.push(w);
    }
  }
  if (order.size() != graph.node_count()) {
    throw std::invalid_argument("topological_order: graph contains a cycle");
  }
  return order;
}

TopoWaves topological_waves(const TaskGraph& graph, bool reverse) {
  const std::size_t n = graph.node_count();
  std::vector<std::size_t> deg(n);
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    deg[static_cast<std::size_t>(v)] = reverse ? graph.out_degree(v) : graph.in_degree(v);
  }
  TopoWaves waves;
  waves.order.reserve(n);
  waves.offsets.push_back(0);
  std::vector<NodeId> frontier;
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (deg[static_cast<std::size_t>(v)] == 0) frontier.push_back(v);
  }
  std::vector<NodeId> next;
  while (!frontier.empty()) {
    // Frontiers are discovered from the previous wave in ascending order and
    // the initial frontier is built by an id sweep, but decrement order
    // within a wave is arbitrary, so sort for a deterministic layout.
    std::sort(frontier.begin(), frontier.end());
    waves.order.insert(waves.order.end(), frontier.begin(), frontier.end());
    waves.offsets.push_back(waves.order.size());
    next.clear();
    for (const NodeId u : frontier) {
      const auto edges = reverse ? graph.in_edges(u) : graph.out_edges(u);
      for (const EdgeId e : edges) {
        const NodeId w = reverse ? graph.edge(e).src : graph.edge(e).dst;
        if (--deg[static_cast<std::size_t>(w)] == 0) next.push_back(w);
      }
    }
    frontier.swap(next);
  }
  if (waves.order.size() != n) {
    throw std::invalid_argument("topological_waves: graph contains a cycle");
  }
  return waves;
}

std::vector<Rational> node_levels(const TaskGraph& graph) {
  std::vector<Rational> level(graph.node_count(), Rational(0));
  for (const NodeId v : topological_waves(graph).order) {
    const auto ins = graph.in_edges(v);
    if (ins.empty()) {
      level[static_cast<std::size_t>(v)] = Rational(1);
      continue;
    }
    Rational best(0);
    for (const EdgeId e : ins) {
      best = std::max(best, level[static_cast<std::size_t>(graph.edge(e).src)]);
    }
    const Rational step = std::max(graph.rate(v), Rational(1));
    level[static_cast<std::size_t>(v)] = best + step;
  }
  return level;
}

Rational graph_level(const TaskGraph& graph) {
  Rational best(0);
  for (const Rational& l : node_levels(graph)) best = std::max(best, l);
  return best;
}

BufferSplitWccs buffer_split_wccs(const TaskGraph& graph) {
  const std::size_t n = graph.node_count();
  UnionFind uf(n);
  for (EdgeId e = 0; static_cast<std::size_t>(e) < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(e);
    if (graph.kind(edge.src) != NodeKind::kBuffer && graph.kind(edge.dst) != NodeKind::kBuffer) {
      uf.unite(static_cast<std::size_t>(edge.src), static_cast<std::size_t>(edge.dst));
    }
  }
  BufferSplitWccs result;
  result.node_wcc.assign(n, -1);
  std::vector<std::int32_t> compact(n, -1);
  std::int32_t next = 0;
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (graph.kind(v) == NodeKind::kBuffer) continue;
    const std::size_t root = uf.find(static_cast<std::size_t>(v));
    if (compact[root] < 0) compact[root] = next++;
    result.node_wcc[static_cast<std::size_t>(v)] = compact[root];
  }
  result.count = next;
  return result;
}

bool buffer_supernode_dag_is_acyclic(const TaskGraph& graph) {
  const BufferSplitWccs wccs = buffer_split_wccs(graph);
  const auto n = static_cast<std::size_t>(wccs.count);
  std::vector<std::vector<std::int32_t>> adj(n);
  std::vector<std::size_t> deg(n, 0);
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (graph.kind(v) != NodeKind::kBuffer) continue;
    // One supernode edge per (writer WCC, reader WCC) pair of this buffer.
    for (const EdgeId in : graph.in_edges(v)) {
      const NodeId writer = graph.edge(in).src;
      if (graph.kind(writer) == NodeKind::kBuffer) return false;  // buffer chain
      const auto tail = wccs.node_wcc[static_cast<std::size_t>(writer)];
      for (const EdgeId out : graph.out_edges(v)) {
        const NodeId reader = graph.edge(out).dst;
        if (graph.kind(reader) == NodeKind::kBuffer) return false;
        const auto head = wccs.node_wcc[static_cast<std::size_t>(reader)];
        if (tail == head) return false;  // cycle within one WCC
        adj[static_cast<std::size_t>(tail)].push_back(head);
        ++deg[static_cast<std::size_t>(head)];
      }
    }
  }
  std::vector<std::int32_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    if (deg[i] == 0) stack.push_back(static_cast<std::int32_t>(i));
  }
  std::size_t seen = 0;
  while (!stack.empty()) {
    const auto u = stack.back();
    stack.pop_back();
    ++seen;
    for (const auto w : adj[static_cast<std::size_t>(u)]) {
      if (--deg[static_cast<std::size_t>(w)] == 0) stack.push_back(w);
    }
  }
  return seen == n;
}

std::vector<bool> edges_on_undirected_cycles(
    std::size_t n, std::span<const std::pair<std::int32_t, std::int32_t>> edges) {
  // Iterative Tarjan bridge finding on the undirected multigraph. Parallel
  // edges are handled naturally: the second copy of a parallel edge is a
  // back edge, so both copies end up on a cycle.
  struct Half {
    std::int32_t to;
    std::int32_t edge;
  };
  std::vector<std::vector<Half>> adj(n);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    adj[static_cast<std::size_t>(u)].push_back({v, static_cast<std::int32_t>(i)});
    adj[static_cast<std::size_t>(v)].push_back({u, static_cast<std::int32_t>(i)});
  }

  std::vector<bool> on_cycle(edges.size(), false);
  std::vector<std::int32_t> disc(n, -1);
  std::vector<std::int32_t> low(n, 0);
  std::int32_t timer = 0;

  struct Frame {
    std::int32_t node;
    std::int32_t parent_edge;
    std::size_t next_child = 0;
  };
  std::vector<Frame> stack;
  for (std::size_t root = 0; root < n; ++root) {
    if (disc[root] != -1) continue;
    stack.push_back({static_cast<std::int32_t>(root), -1});
    disc[root] = low[root] = timer++;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto u = static_cast<std::size_t>(frame.node);
      if (frame.next_child < adj[u].size()) {
        const Half half = adj[u][frame.next_child++];
        if (half.edge == frame.parent_edge) continue;
        const auto w = static_cast<std::size_t>(half.to);
        if (disc[w] == -1) {
          disc[w] = low[w] = timer++;
          stack.push_back({half.to, half.edge});
        } else {
          // Back edge: lies on a cycle.
          low[u] = std::min(low[u], disc[w]);
          on_cycle[static_cast<std::size_t>(half.edge)] = true;
        }
      } else {
        stack.pop_back();
        if (!stack.empty()) {
          Frame& parent = stack.back();
          const auto p = static_cast<std::size_t>(parent.node);
          low[p] = std::min(low[p], low[u]);
          // Tree edge (p -> u) is a bridge iff low[u] > disc[p].
          if (low[u] <= disc[p]) {
            on_cycle[static_cast<std::size_t>(frame.parent_edge)] = true;
          }
        }
      }
    }
  }
  return on_cycle;
}

std::vector<NodeId> alive_sources(const TaskGraph& graph, const std::vector<bool>& alive) {
  std::vector<NodeId> sources;
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (!alive[static_cast<std::size_t>(v)]) continue;
    bool ready = true;
    for (const EdgeId e : graph.in_edges(v)) {
      if (alive[static_cast<std::size_t>(graph.edge(e).src)]) {
        ready = false;
        break;
      }
    }
    if (ready) sources.push_back(v);
  }
  return sources;
}

}  // namespace sts
