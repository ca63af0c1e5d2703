#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/task_graph.hpp"

namespace sts {

/// Synthetic task-graph topologies of the paper's evaluation (Section 7.1).
///
/// A topology fixes tasks and dependencies; canonical volumes (and therefore
/// node types: element-wise / downsampler / upsampler) are randomized per
/// seed: co-predecessor classes share one power-of-two volume so that every
/// node receives equal amounts on all input edges, exactly as canonicity
/// requires. No buffer nodes are introduced, so all edges can stream within
/// a spatial block (paper Section 7.1).
struct VolumeDistribution {
  /// Volumes are 2^k with k uniform in [min_log2, max_log2]. The defaults
  /// keep streams long enough for the steady-state analysis (asymptotically
  /// exact, Section 4.2.3) to be within a few percent of simulation while
  /// keeping simulated makespans small.
  int min_log2 = 4;
  int max_log2 = 10;
};

/// Linear chain of `tasks` nodes: task i feeds task i+1.
[[nodiscard]] TaskGraph make_chain(int tasks, std::uint64_t seed,
                                   VolumeDistribution dist = {});

/// One-dimensional FFT task graph for `points` input points (a power of 2):
/// a binary tree of 2*points-1 recursive-call tasks feeding log2(points)
/// stages of `points` butterfly tasks each.
[[nodiscard]] TaskGraph make_fft(int points, std::uint64_t seed, VolumeDistribution dist = {});

/// Gaussian elimination task graph for an `matrix_size` x `matrix_size`
/// matrix (Topcuoglu et al. [33]): pivot tasks T(k,k) and update tasks
/// T(k,j), totalling (M^2 + M - 2) / 2 tasks.
[[nodiscard]] TaskGraph make_gaussian_elimination(int matrix_size, std::uint64_t seed,
                                                  VolumeDistribution dist = {});

/// Left-looking tiled Cholesky factorization on a `tiles` x `tiles` tile
/// grid (Kurzak et al. [20]): POTRF/TRSM/SYRK/GEMM tasks, totalling
/// T^3/6 + T^2/2 + T/3 tasks.
[[nodiscard]] TaskGraph make_cholesky(int tiles, std::uint64_t seed,
                                      VolumeDistribution dist = {});

/// Expected task counts (used to cross-check the generators against the
/// formulas quoted in the paper). fft_task_count validates its input the way
/// make_fft does (throws std::invalid_argument unless `points` is a power of
/// two >= 2) — the formula is meaningless, and its old implementation hit
/// shift UB, for anything else.
[[nodiscard]] std::int64_t chain_task_count(int tasks) noexcept;
[[nodiscard]] std::int64_t fft_task_count(int points);
[[nodiscard]] std::int64_t gaussian_task_count(int matrix_size) noexcept;
[[nodiscard]] std::int64_t cholesky_task_count(int tiles) noexcept;

/// Builds a canonical task graph from a pure topology: `edges` over
/// `node_count` nodes, volumes randomized per co-predecessor class. Exposed
/// so custom topologies can reuse the paper's randomization scheme.
[[nodiscard]] TaskGraph canonical_from_topology(
    std::int32_t node_count, const std::vector<std::pair<std::int32_t, std::int32_t>>& edges,
    std::uint64_t seed, VolumeDistribution dist = {});

/// Random layered DAGs for property/fuzz testing: `layers` layers of up to
/// `width` nodes; every non-entry node has at least one predecessor in an
/// earlier layer; extra edges appear with `edge_probability`, skipping at
/// most `max_skip` layers. All structural and volume randomness derives
/// from `seed`.
struct LayeredSpec {
  int layers = 6;
  int width = 6;
  double edge_probability = 0.25;
  int max_skip = 2;
};

[[nodiscard]] TaskGraph make_random_layered(const LayeredSpec& spec, std::uint64_t seed,
                                            VolumeDistribution dist = {});

/// Layered DAG with exactly `width` nodes per layer and `fan_in` sampled
/// predecessors (from the previous layer, deduplicated, so a node may end up
/// with fewer) per non-entry node. O(layers * width * fan_in) to build,
/// unlike LayeredSpec's per-pair coin flips, so it scales to 10^6 nodes.
[[nodiscard]] TaskGraph make_fanin_layered(int layers, int width, int fan_in,
                                           std::uint64_t seed);

}  // namespace sts
