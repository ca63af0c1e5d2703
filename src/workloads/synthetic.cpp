#include "workloads/synthetic.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "support/prng.hpp"

namespace sts {

namespace {

bool is_power_of_two(int x) { return x > 0 && (x & (x - 1)) == 0; }

// Callers validate x as a positive power of two first; the 64-bit shift keeps
// the loop defined for every positive int (1 << 31 is UB in 32-bit).
int log2_of(int x) {
  int bits = 0;
  while ((std::int64_t{1} << bits) < x) ++bits;
  return bits;
}

void require_power_of_two(const char* fn, int points) {
  if (!is_power_of_two(points) || points < 2) {
    // Built with append rather than operator+ chains: the latter trips a
    // GCC 12 -Wrestrict false positive (PR 105329).
    std::string message(fn);
    message += ": points must be a power of two >= 2, got ";
    message += std::to_string(points);
    throw std::invalid_argument(message);
  }
}

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

}  // namespace

TaskGraph canonical_from_topology(
    std::int32_t node_count, const std::vector<std::pair<std::int32_t, std::int32_t>>& edges,
    std::uint64_t seed, VolumeDistribution dist) {
  if (dist.min_log2 < 0 || dist.max_log2 < dist.min_log2 || dist.max_log2 > 20) {
    throw std::invalid_argument("canonical_from_topology: bad volume distribution");
  }

  // Canonicity requires all predecessors of a node to produce the same
  // volume: group co-predecessors with union-find and draw one volume per
  // class.
  const auto n = static_cast<std::size_t>(node_count);
  std::vector<std::vector<std::int32_t>> preds(n);
  for (const auto& [u, v] : edges) {
    preds[static_cast<std::size_t>(v)].push_back(u);
  }
  UnionFind classes(n);
  for (const auto& list : preds) {
    for (std::size_t i = 1; i < list.size(); ++i) {
      classes.unite(static_cast<std::size_t>(list[0]), static_cast<std::size_t>(list[i]));
    }
  }

  Prng rng(seed);
  std::vector<std::int64_t> class_volume(n, 0);
  std::vector<std::int64_t> volume(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t root = classes.find(v);
    if (class_volume[root] == 0) {
      class_volume[root] = std::int64_t{1}
                           << rng.uniform_int(dist.min_log2, dist.max_log2);
    }
    volume[v] = class_volume[root];
  }

  TaskGraph graph;
  std::vector<bool> has_pred(n, false);
  for (const auto& [u, v] : edges) has_pred[static_cast<std::size_t>(v)] = true;
  for (std::int32_t v = 0; v < node_count; ++v) {
    const auto idx = static_cast<std::size_t>(v);
    if (!has_pred[idx]) {
      graph.add_source(volume[idx], "t" + std::to_string(v));
    } else {
      const NodeId id = graph.add_compute("t" + std::to_string(v));
      graph.declare_output(id, volume[idx]);
    }
  }
  for (const auto& [u, v] : edges) {
    graph.add_edge(u, v, volume[static_cast<std::size_t>(u)]);
  }
  return graph;
}

std::int64_t chain_task_count(int tasks) noexcept { return tasks; }

std::int64_t fft_task_count(int points) {
  require_power_of_two("fft_task_count", points);
  const std::int64_t n = points;
  return 2 * n - 1 + n * log2_of(points);
}

std::int64_t gaussian_task_count(int matrix_size) noexcept {
  const std::int64_t m = matrix_size;
  return (m * m + m - 2) / 2;
}

std::int64_t cholesky_task_count(int tiles) noexcept {
  const std::int64_t t = tiles;
  return t + t * (t - 1) + t * (t - 1) * (t - 2) / 6;
}

TaskGraph make_chain(int tasks, std::uint64_t seed, VolumeDistribution dist) {
  if (tasks < 1) throw std::invalid_argument("make_chain: need at least one task");
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t i = 0; i + 1 < tasks; ++i) edges.emplace_back(i, i + 1);
  return canonical_from_topology(tasks, edges, seed, dist);
}

TaskGraph make_fft(int points, std::uint64_t seed, VolumeDistribution dist) {
  require_power_of_two("make_fft", points);
  if (points > (1 << 20)) {
    std::string message = "make_fft: refusing points > 2^20 (";
    message += std::to_string(points);
    message += " requested): the node-id space and memory cost explode";
    throw std::invalid_argument(message);
  }
  const int stages = log2_of(points);
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;

  // Recursive-call binary tree: node 0 is the root; node i has children
  // 2i+1, 2i+2; the last `points` nodes are the leaves feeding stage 0.
  const std::int32_t tree_nodes = 2 * points - 1;
  for (std::int32_t i = 0; 2 * i + 2 < tree_nodes; ++i) {
    edges.emplace_back(i, 2 * i + 1);
    edges.emplace_back(i, 2 * i + 2);
  }
  const std::int32_t first_leaf = points - 1;

  // Butterfly stages: stage s task i depends on stage s-1 tasks i and
  // i ^ 2^(s-1) (stage 0 inputs are the tree leaves).
  const auto butterfly = [&](int stage, int i) {
    return tree_nodes + static_cast<std::int32_t>(stage) * points + i;
  };
  for (int i = 0; i < points; ++i) {
    edges.emplace_back(first_leaf + i, butterfly(0, i));
    edges.emplace_back(first_leaf + (i ^ 1), butterfly(0, i));
  }
  for (int s = 1; s < stages; ++s) {
    for (int i = 0; i < points; ++i) {
      edges.emplace_back(butterfly(s - 1, i), butterfly(s, i));
      edges.emplace_back(butterfly(s - 1, i ^ (1 << s)), butterfly(s, i));
    }
  }
  const std::int32_t total = tree_nodes + stages * points;
  return canonical_from_topology(total, edges, seed, dist);
}

TaskGraph make_gaussian_elimination(int matrix_size, std::uint64_t seed,
                                    VolumeDistribution dist) {
  if (matrix_size < 2) throw std::invalid_argument("make_gaussian_elimination: size >= 2");
  const int m = matrix_size;
  // Tasks: pivot T(k,k) for k in [1, m-1]; update T(k,j) for j in (k, m].
  std::vector<std::vector<std::int32_t>> id(static_cast<std::size_t>(m) + 1,
                                            std::vector<std::int32_t>(m + 1, -1));
  std::int32_t next = 0;
  for (int k = 1; k < m; ++k) {
    id[k][k] = next++;
    for (int j = k + 1; j <= m; ++j) id[k][j] = next++;
  }
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (int k = 1; k < m; ++k) {
    if (k > 1) edges.emplace_back(id[k - 1][k], id[k][k]);  // pivot needs column k
    for (int j = k + 1; j <= m; ++j) {
      edges.emplace_back(id[k][k], id[k][j]);               // updates need the pivot
      if (k > 1) edges.emplace_back(id[k - 1][j], id[k][j]);  // and the previous row
    }
  }
  return canonical_from_topology(next, edges, seed, dist);
}

TaskGraph make_random_layered(const LayeredSpec& spec, std::uint64_t seed,
                              VolumeDistribution dist) {
  if (spec.layers < 1 || spec.width < 1 || spec.max_skip < 1 ||
      spec.edge_probability < 0.0 || spec.edge_probability > 1.0) {
    throw std::invalid_argument("make_random_layered: bad spec");
  }
  Prng rng(seed ^ 0x9e3779b97f4a7c15ULL);

  std::vector<std::vector<std::int32_t>> layer_nodes(static_cast<std::size_t>(spec.layers));
  std::int32_t next = 0;
  for (auto& layer : layer_nodes) {
    const auto count = rng.uniform_int(1, spec.width);
    for (std::int64_t i = 0; i < count; ++i) layer.push_back(next++);
  }

  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (int l = 1; l < spec.layers; ++l) {
    for (const std::int32_t v : layer_nodes[static_cast<std::size_t>(l)]) {
      // Guaranteed predecessor from the previous layer keeps the graph
      // connected layer-to-layer.
      const auto& prev = layer_nodes[static_cast<std::size_t>(l - 1)];
      edges.emplace_back(
          prev[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(prev.size()) - 1))],
          v);
      // Extra edges from earlier layers within the skip window.
      const int lo = std::max(0, l - spec.max_skip);
      for (int src_layer = lo; src_layer < l; ++src_layer) {
        for (const std::int32_t u : layer_nodes[static_cast<std::size_t>(src_layer)]) {
          if (rng.uniform() < spec.edge_probability) edges.emplace_back(u, v);
        }
      }
    }
  }
  // Deduplicate parallel edges introduced by the two rules above.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return canonical_from_topology(next, edges, seed, dist);
}

TaskGraph make_cholesky(int tiles, std::uint64_t seed, VolumeDistribution dist) {
  if (tiles < 2) throw std::invalid_argument("make_cholesky: tiles >= 2");
  const int t = tiles;
  const auto key = [t](int a, int b, int c) { return (a * t + b) * t + c; };
  std::vector<std::int32_t> potrf(static_cast<std::size_t>(t), -1);
  std::vector<std::int32_t> trsm(static_cast<std::size_t>(t) * t, -1);
  std::vector<std::int32_t> syrk(static_cast<std::size_t>(t) * t, -1);
  std::vector<std::int32_t> gemm(static_cast<std::size_t>(t) * t * t, -1);
  std::int32_t next = 0;
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;

  for (int k = 0; k < t; ++k) {
    potrf[static_cast<std::size_t>(k)] = next++;
    if (k > 0) {
      edges.emplace_back(syrk[static_cast<std::size_t>(k * t + (k - 1))],
                         potrf[static_cast<std::size_t>(k)]);
    }
    for (int i = k + 1; i < t; ++i) {
      trsm[static_cast<std::size_t>(i * t + k)] = next++;
      edges.emplace_back(potrf[static_cast<std::size_t>(k)],
                         trsm[static_cast<std::size_t>(i * t + k)]);
      if (k > 0) {
        edges.emplace_back(gemm[static_cast<std::size_t>(key(i, k, k - 1))],
                           trsm[static_cast<std::size_t>(i * t + k)]);
      }
    }
    for (int i = k + 1; i < t; ++i) {
      syrk[static_cast<std::size_t>(i * t + k)] = next++;
      edges.emplace_back(trsm[static_cast<std::size_t>(i * t + k)],
                         syrk[static_cast<std::size_t>(i * t + k)]);
      if (k > 0) {
        edges.emplace_back(syrk[static_cast<std::size_t>(i * t + (k - 1))],
                           syrk[static_cast<std::size_t>(i * t + k)]);
      }
      for (int j = k + 1; j < i; ++j) {
        gemm[static_cast<std::size_t>(key(i, j, k))] = next++;
        edges.emplace_back(trsm[static_cast<std::size_t>(i * t + k)],
                           gemm[static_cast<std::size_t>(key(i, j, k))]);
        edges.emplace_back(trsm[static_cast<std::size_t>(j * t + k)],
                           gemm[static_cast<std::size_t>(key(i, j, k))]);
        if (k > 0) {
          edges.emplace_back(gemm[static_cast<std::size_t>(key(i, j, k - 1))],
                             gemm[static_cast<std::size_t>(key(i, j, k))]);
        }
      }
    }
  }
  return canonical_from_topology(next, edges, seed, dist);
}

TaskGraph make_fanin_layered(int layers, int width, int fan_in, std::uint64_t seed) {
  Prng rng(seed ^ 0x5851f42d4c957f2dULL);
  const auto nodes = static_cast<std::int32_t>(layers * width);
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  edges.reserve(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(fan_in));
  for (int l = 1; l < layers; ++l) {
    const auto prev_base = static_cast<std::int32_t>((l - 1) * width);
    const auto base = static_cast<std::int32_t>(l * width);
    for (std::int32_t v = base; v < base + width; ++v) {
      for (int k = 0; k < fan_in; ++k) {
        edges.emplace_back(prev_base + static_cast<std::int32_t>(rng.uniform_int(0, width - 1)),
                           v);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return canonical_from_topology(nodes, edges, seed);
}

}  // namespace sts
