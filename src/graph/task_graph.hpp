#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/rational.hpp"
#include "support/thread_annotations.hpp"

namespace sts {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

struct GraphEdit;

/// Canonical node kinds (paper Section 3.1).
enum class NodeKind : std::uint8_t {
  kSource,   ///< reads its output from global memory; no production rate
  kSink,     ///< stores its input to global memory; production rate zero
  kCompute,  ///< computational node with production rate R(v) = O(v)/I(v)
  kBuffer,   ///< passive memory node; cannot be pipelined through; holds no PE
};

[[nodiscard]] const char* to_string(NodeKind kind) noexcept;

/// A directed data dependency carrying `volume` unitary elements (edge label
/// in the paper's figures).  Canonicity implies volume == O(src) == I(dst).
struct Edge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::int64_t volume = 0;
};

/// Precomputed per-node streaming profile, materialized together with the
/// CSR adjacency so hot loops (partitioner, scheduler, buffer sizing, both
/// simulator engines) read one cache line instead of chasing edge lists.
struct NodeProfile {
  std::int64_t in_volume = 0;   ///< I(v): per-edge input element count
  std::int64_t out_volume = 0;  ///< O(v): per-edge output element count
  std::int64_t work = 0;        ///< W(v) = max(I, O); 0 for buffer nodes
  std::int64_t rate_num = 1;    ///< reduced numerator of R(v) = O/I (1 if I==0)
  std::int64_t rate_den = 1;    ///< reduced denominator of R(v)
};

/// A canonical task graph (paper Sections 2-3): a DAG of canonical nodes.
///
/// Volumes are per-edge element counts. A canonical node receives the same
/// amount from every input edge (I(v)) and emits the same amount to every
/// output edge (O(v)). Exit nodes (no out-edges) and sources declare their
/// output volume explicitly via `declare_output` / `add_source`, modelling
/// the stream they write to / read from global memory.
///
/// Adjacency is stored in CSR form (flat edge-id arrays plus per-node
/// offsets), rebuilt lazily after mutation: `in_edges`/`out_edges` return
/// spans over contiguous storage and volume/rate/work queries are O(1)
/// lookups into the precomputed NodeProfile table. Mutating the graph
/// invalidates the CSR; the next (const) accessor rebuilds it in O(N + E).
/// The rebuild is guarded (atomic flag + serialized build), so concurrent
/// const access to a shared graph stays safe — the contract ScheduleCache's
/// lock-free scheduling path relies on. Mutation still requires exclusive
/// ownership, like any standard container.
///
/// The class enforces structural rules lazily: construction never throws on
/// semantic violations; `validate()` reports them all so tests can assert on
/// specific diagnostics.
class TaskGraph {
 public:
  TaskGraph() = default;

  // Copies carry only the graph itself; the copy rebuilds its CSR caches on
  // demand (copying them from a concurrently-building source would race).
  TaskGraph(const TaskGraph& other) : nodes_(other.nodes_), edges_(other.edges_) {}
  TaskGraph& operator=(const TaskGraph& other) {
    if (this != &other) {
      nodes_ = other.nodes_;
      edges_ = other.edges_;
      csr_ready_.store(false, std::memory_order_relaxed);
    }
    return *this;
  }
  // Moves require exclusive ownership of the source and keep its caches.
  TaskGraph(TaskGraph&& other) noexcept
      : nodes_(std::move(other.nodes_)),
        edges_(std::move(other.edges_)),
        in_off_(std::move(other.in_off_)),
        out_off_(std::move(other.out_off_)),
        in_csr_(std::move(other.in_csr_)),
        out_csr_(std::move(other.out_csr_)),
        profile_(std::move(other.profile_)),
        csr_ready_(other.csr_ready_.load(std::memory_order_relaxed)) {
    other.csr_ready_.store(false, std::memory_order_relaxed);
  }
  TaskGraph& operator=(TaskGraph&& other) noexcept {
    if (this != &other) {
      nodes_ = std::move(other.nodes_);
      edges_ = std::move(other.edges_);
      in_off_ = std::move(other.in_off_);
      out_off_ = std::move(other.out_off_);
      in_csr_ = std::move(other.in_csr_);
      out_csr_ = std::move(other.out_csr_);
      profile_ = std::move(other.profile_);
      csr_ready_.store(other.csr_ready_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      other.csr_ready_.store(false, std::memory_order_relaxed);
    }
    return *this;
  }

  /// Creates a source streaming `output_volume` elements out of global memory.
  NodeId add_source(std::int64_t output_volume, std::string name = {});

  /// Creates a computational node; I/O volumes derive from incident edges.
  NodeId add_compute(std::string name = {});

  /// Creates a passive buffer node (not scheduled on a PE).
  NodeId add_buffer(std::string name = {});

  /// Creates a sink absorbing its input into global memory.
  NodeId add_sink(std::string name = {});

  /// Declares the output volume of an exit computational node (stream written
  /// to global memory). For nodes with out-edges the declaration must match
  /// the edge volumes (checked by validate()).
  void declare_output(NodeId v, std::int64_t output_volume);

  /// Adds a dependency edge carrying `volume` elements.
  EdgeId add_edge(NodeId src, NodeId dst, std::int64_t volume);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  [[nodiscard]] NodeKind kind(NodeId v) const { return nodes_[static_cast<std::size_t>(v)].kind; }
  [[nodiscard]] const std::string& name(NodeId v) const {
    return nodes_[static_cast<std::size_t>(v)].name;
  }
  [[nodiscard]] const Edge& edge(EdgeId e) const { return edges_[static_cast<std::size_t>(e)]; }

  /// All edges in insertion (id) order, contiguous.
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId v) const {
    ensure_csr();
    const auto idx = static_cast<std::size_t>(v);
    return {in_csr_.data() + in_off_[idx], in_csr_.data() + in_off_[idx + 1]};
  }
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId v) const {
    ensure_csr();
    const auto idx = static_cast<std::size_t>(v);
    return {out_csr_.data() + out_off_[idx], out_csr_.data() + out_off_[idx + 1]};
  }
  [[nodiscard]] std::size_t in_degree(NodeId v) const { return in_edges(v).size(); }
  [[nodiscard]] std::size_t out_degree(NodeId v) const { return out_edges(v).size(); }

  /// Precomputed per-node profiles, indexed by NodeId (valid until the next
  /// mutation). Prefer this in hot loops over repeated volume/rate calls.
  [[nodiscard]] std::span<const NodeProfile> profiles() const {
    ensure_csr();
    return profile_;
  }

  /// I(v): per-edge input element count; 0 for sources.
  [[nodiscard]] std::int64_t input_volume(NodeId v) const;

  /// O(v): the declared volume for exit nodes and sources, otherwise the
  /// (common) out-edge volume. 0 for sinks.
  [[nodiscard]] std::int64_t output_volume(NodeId v) const;

  /// The declared output volume record (0 = none declared). Distinct from
  /// output_volume(): exact replication of declarations is what graph edits
  /// and partition extraction need to rebuild a graph record-for-record.
  [[nodiscard]] std::int64_t declared_output(NodeId v) const {
    return nodes_[static_cast<std::size_t>(v)].declared_output;
  }

  /// R(v) = O(v)/I(v); only defined for compute and buffer nodes.
  [[nodiscard]] Rational rate(NodeId v) const;

  /// W(v) = max(I(v), O(v)) (paper Section 4.2); 0 for buffer nodes, which
  /// are not active entities.
  [[nodiscard]] std::int64_t work(NodeId v) const;

  /// T1 = sum of work over PE-occupying nodes: sequential execution time.
  [[nodiscard]] std::int64_t total_work() const;

  /// True for nodes that must be scheduled on a processing element
  /// (everything except buffer nodes).
  [[nodiscard]] bool occupies_pe(NodeId v) const { return kind(v) != NodeKind::kBuffer; }

  /// Node classification helpers (computational nodes only).
  [[nodiscard]] bool is_elementwise(NodeId v) const { return rate(v) == Rational(1); }
  [[nodiscard]] bool is_downsampler(NodeId v) const { return rate(v) < Rational(1); }
  [[nodiscard]] bool is_upsampler(NodeId v) const { return rate(v) > Rational(1); }

  /// All structural/canonicity violations; empty means the graph is a valid
  /// canonical task graph. Two rule sets: the per-node rules (volume
  /// canonicity, declared outputs, per-kind degree rules) for every node in
  /// id order, then the structural rules, which read only adjacency and node
  /// kinds (no buffer feeding a buffer, DAG-ness, and the buffer placement
  /// rule of Section 4.2.3).
  [[nodiscard]] std::vector<std::string> validate() const;

  /// The per-node rules of validate() over `scope`, an ascending list of
  /// node ids. For a graph derived from a valid one by changing only edge
  /// volumes and declared outputs (same nodes, kinds and adjacency), the
  /// structural rules cannot change and no untouched node's rules can, so
  /// validate_nodes(touched nodes) == validate(), message for message.
  [[nodiscard]] std::vector<std::string> validate_nodes(std::span<const NodeId> scope) const;

  /// Throws std::invalid_argument listing all violations, if any.
  void validate_or_throw() const;

 private:
  struct NodeRec {
    NodeKind kind = NodeKind::kCompute;
    std::string name;
    std::int64_t declared_output = 0;  // 0 = not declared
  };

  // Edit materialization applies an edit list to a copy's records in place
  // (holding a non-positive volume until the list ends, as a later edit may
  // overwrite it) and restores every invariant the public mutators enforce
  // before it returns.
  friend TaskGraph apply_graph_edits(const TaskGraph& base, std::span<const GraphEdit> edits);

  NodeId add_node(NodeKind kind, std::string name);
  void check_node(NodeId v) const;
  void append_node_issues(NodeId v, std::vector<std::string>& issues) const;
  void ensure_csr() const {
    if (!csr_ready_.load(std::memory_order_acquire)) rebuild_csr();
  }
  void rebuild_csr() const EXCLUDES(rebuild_mutex_);
  void rebuild_csr_locked() const REQUIRES(rebuild_mutex_);

  std::vector<NodeRec> nodes_;
  std::vector<Edge> edges_;

  // CSR adjacency + profile caches; rebuilt lazily after mutation. Edge ids
  // within each node's span appear in edge-insertion order, matching the
  // historical vector-of-vectors layout exactly.
  //
  // Deliberately NOT GUARDED_BY(rebuild_mutex_): readers never take the lock
  // — they go through ensure_csr(), whose csr_ready_ acquire load pairs with
  // the release store at the end of rebuild_csr_locked() to publish the
  // built arrays. The mutex only serializes concurrent rebuilders.
  mutable std::vector<std::int32_t> in_off_;   // size N+1
  mutable std::vector<std::int32_t> out_off_;  // size N+1
  mutable std::vector<EdgeId> in_csr_;         // size E
  mutable std::vector<EdgeId> out_csr_;        // size E
  mutable std::vector<NodeProfile> profile_;   // size N
  mutable std::atomic<bool> csr_ready_{false};
  // Per-instance rebuild guard (never copied/moved: each graph owns its own,
  // and copy/move require exclusive access anyway).
  mutable Mutex rebuild_mutex_;
};

}  // namespace sts
