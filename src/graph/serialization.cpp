#include "graph/serialization.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "graph/algorithms.hpp"
#include "support/hash.hpp"
#include "support/text.hpp"

namespace sts {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("load_task_graph: line " + std::to_string(line) + ": " + what);
}

NodeKind kind_from(const std::string& token, std::size_t line) {
  if (token == "source") return NodeKind::kSource;
  if (token == "sink") return NodeKind::kSink;
  if (token == "compute") return NodeKind::kCompute;
  if (token == "buffer") return NodeKind::kBuffer;
  fail(line, "unknown node kind '" + token + "'");
}

}  // namespace

TaskGraph load_task_graph(std::istream& input) {
  TaskGraph graph;
  // Declared outputs may precede edges; sources need theirs at creation, so
  // records are processed in two passes over buffered lines.
  struct PendingNode {
    NodeKind kind;
    std::string name;
  };
  struct PendingEdge {
    NodeId src;
    NodeId dst;
    std::int64_t volume;
  };
  std::vector<PendingNode> nodes;
  std::vector<std::pair<NodeId, std::int64_t>> outputs;
  std::vector<PendingEdge> edges;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(input, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string record;
    if (!(fields >> record)) continue;  // blank / comment-only line
    if (record == "node") {
      std::int64_t id = -1;
      std::string kind;
      if (!(fields >> id >> kind)) fail(line_no, "expected 'node <id> <kind> [name]'");
      if (id != static_cast<std::int64_t>(nodes.size())) {
        fail(line_no, "node ids must be dense and ascending (got " + std::to_string(id) +
                          ", expected " + std::to_string(nodes.size()) + ")");
      }
      std::string name;
      fields >> name;  // optional
      nodes.push_back(PendingNode{kind_from(kind, line_no), name});
    } else if (record == "output") {
      std::int64_t id = -1;
      std::int64_t volume = 0;
      if (!(fields >> id >> volume)) fail(line_no, "expected 'output <id> <volume>'");
      outputs.emplace_back(static_cast<NodeId>(id), volume);
    } else if (record == "edge") {
      PendingEdge edge{};
      if (!(fields >> edge.src >> edge.dst >> edge.volume)) {
        fail(line_no, "expected 'edge <src> <dst> <volume>'");
      }
      edges.push_back(edge);
    } else {
      fail(line_no, "unknown record '" + record + "'");
    }
  }

  std::vector<std::int64_t> declared(nodes.size(), 0);
  for (const auto& [id, volume] : outputs) {
    if (id < 0 || static_cast<std::size_t>(id) >= nodes.size()) {
      throw std::invalid_argument("load_task_graph: output record for unknown node " +
                                  std::to_string(id));
    }
    declared[static_cast<std::size_t>(id)] = volume;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    switch (nodes[i].kind) {
      case NodeKind::kSource:
        if (declared[i] <= 0) {
          throw std::invalid_argument("load_task_graph: source node " + std::to_string(i) +
                                      " needs an 'output' record");
        }
        graph.add_source(declared[i], nodes[i].name);
        break;
      case NodeKind::kSink:
        graph.add_sink(nodes[i].name);
        break;
      case NodeKind::kCompute: {
        const NodeId v = graph.add_compute(nodes[i].name);
        if (declared[i] > 0) graph.declare_output(v, declared[i]);
        break;
      }
      case NodeKind::kBuffer: {
        const NodeId v = graph.add_buffer(nodes[i].name);
        if (declared[i] > 0) graph.declare_output(v, declared[i]);
        break;
      }
    }
  }
  for (const auto& edge : edges) {
    graph.add_edge(edge.src, edge.dst, edge.volume);
  }
  return graph;
}

TaskGraph load_task_graph_from_string(const std::string& text) {
  std::istringstream input(text);
  return load_task_graph(input);
}

void save_task_graph(std::ostream& output, const TaskGraph& graph) {
  output << save_task_graph_to_string(graph);
}

std::string save_task_graph_to_string(const TaskGraph& graph) {
  // Built with plain string appends + to_chars rather than iostreams: this
  // serialization doubles as the ScheduleCache key, so it sits on the
  // cache-hit path and must stay much cheaper than scheduling itself.
  std::string out;
  out.reserve(64 + 28 * graph.node_count() + 32 * graph.edge_count());
  out += "# canonical task graph: ";
  append_number(out, static_cast<std::int64_t>(graph.node_count()));
  out += " nodes, ";
  append_number(out, static_cast<std::int64_t>(graph.edge_count()));
  out += " edges\n";
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    out += "node ";
    append_number(out, v);
    out += ' ';
    out += to_string(graph.kind(v));
    if (!graph.name(v).empty()) {
      out += ' ';
      out += graph.name(v);
    }
    out += '\n';
    const bool is_exit = graph.out_degree(v) == 0 && graph.kind(v) != NodeKind::kSink;
    if (graph.kind(v) == NodeKind::kSource || is_exit ||
        (graph.kind(v) == NodeKind::kBuffer && graph.output_volume(v) > 0)) {
      if (graph.output_volume(v) > 0) {
        out += "output ";
        append_number(out, v);
        out += ' ';
        append_number(out, graph.output_volume(v));
        out += '\n';
      }
    }
  }
  for (EdgeId e = 0; static_cast<std::size_t>(e) < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(e);
    out += "edge ";
    append_number(out, edge.src);
    out += ' ';
    append_number(out, edge.dst);
    out += ' ';
    append_number(out, edge.volume);
    out += '\n';
  }
  return out;
}

void append_task_graph_json(std::string& out, const TaskGraph& graph) {
  out += "{\"nodes\": [";
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (v > 0) out += ", ";
    out += "{\"kind\": \"";
    out += to_string(graph.kind(v));
    out += '"';
    // Output records mirror the text serializer exactly: sources, exit
    // computes, and buffers with a declared volume. Derived volumes are not
    // written, so parse(append(g)) fingerprints identically to g.
    const bool is_exit = graph.out_degree(v) == 0 && graph.kind(v) != NodeKind::kSink;
    if ((graph.kind(v) == NodeKind::kSource || is_exit ||
         graph.kind(v) == NodeKind::kBuffer) &&
        graph.output_volume(v) > 0) {
      out += ", \"output\": ";
      append_number(out, graph.output_volume(v));
    }
    if (!graph.name(v).empty()) {
      out += ", \"name\": ";
      append_json_quoted(out, graph.name(v));
    }
    out += '}';
  }
  out += "], \"edges\": [";
  for (EdgeId e = 0; static_cast<std::size_t>(e) < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(e);
    if (e > 0) out += ", ";
    out += '[';
    append_number(out, edge.src);
    out += ", ";
    append_number(out, edge.dst);
    out += ", ";
    append_number(out, edge.volume);
    out += ']';
  }
  out += "]}";
}

TaskGraph task_graph_from_json(const JsonValue& json) {
  const auto reject_unknown = [](const JsonValue& object,
                                 std::initializer_list<std::string_view> allowed,
                                 const char* what) {
    reject_unknown_members(object, allowed, "task_graph_from_json", what);
  };
  reject_unknown(json, {"nodes", "edges"}, "graph");

  TaskGraph graph;
  for (const JsonValue& node : json.at("nodes").items()) {
    reject_unknown(node, {"kind", "output", "name"}, "node");
    const std::string& kind = node.at("kind").as_string();
    std::string name;
    if (const JsonValue* n = node.find("name")) name = n->as_string();
    std::int64_t output = 0;
    if (const JsonValue* o = node.find("output")) output = o->as_int();
    if (kind == "source") {
      if (output <= 0) {
        throw std::invalid_argument("task_graph_from_json: source node " +
                                    std::to_string(graph.node_count()) +
                                    " needs a positive 'output'");
      }
      graph.add_source(output, std::move(name));
    } else if (kind == "sink") {
      if (output > 0) {
        throw std::invalid_argument("task_graph_from_json: sink node cannot declare 'output'");
      }
      graph.add_sink(std::move(name));
    } else if (kind == "compute") {
      const NodeId v = graph.add_compute(std::move(name));
      if (output > 0) graph.declare_output(v, output);
    } else if (kind == "buffer") {
      const NodeId v = graph.add_buffer(std::move(name));
      if (output > 0) graph.declare_output(v, output);
    } else {
      throw std::invalid_argument("task_graph_from_json: unknown node kind '" + kind + "'");
    }
  }
  for (const JsonValue& edge : json.at("edges").items()) {
    const std::vector<JsonValue>& fields = edge.items();
    if (fields.size() != 3) {
      throw std::invalid_argument("task_graph_from_json: edge must be [src, dst, volume]");
    }
    const std::int64_t src = fields[0].as_int();
    const std::int64_t dst = fields[1].as_int();
    const auto in_range = [&graph](std::int64_t v) {
      return v >= 0 && static_cast<std::size_t>(v) < graph.node_count();
    };
    if (!in_range(src) || !in_range(dst)) {
      throw std::invalid_argument("task_graph_from_json: edge endpoint out of range");
    }
    graph.add_edge(static_cast<NodeId>(src), static_cast<NodeId>(dst), fields[2].as_int());
  }
  return graph;
}

std::string canonical_fingerprint(const TaskGraph& graph) {
  const std::size_t nodes = graph.node_count();
  const std::size_t edges = graph.edge_count();
  std::string out;
  out.resize(16 + nodes * 9 + edges * 24);
  char* p = out.data();
  const auto put64 = [&p](std::int64_t value) {
    std::memcpy(p, &value, 8);
    p += 8;
  };
  put64(static_cast<std::int64_t>(nodes));
  put64(static_cast<std::int64_t>(edges));
  const std::span<const NodeProfile> profile = graph.profiles();
  for (NodeId v = 0; static_cast<std::size_t>(v) < nodes; ++v) {
    *p++ = static_cast<char>(graph.kind(v));
    put64(profile[static_cast<std::size_t>(v)].out_volume);
  }
  for (const Edge& edge : graph.edges()) {
    put64(edge.src);
    put64(edge.dst);
    put64(edge.volume);
  }
  return out;
}

namespace {

// splitmix64 finalizer: every input bit flips every output bit with ~1/2
// probability, which is what lets sorted-signature folding stand in for a
// multiset hash.
constexpr std::uint64_t avalanche(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t w) noexcept {
  return avalanche(h ^ (w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

// Distinct hash values among the partition's nodes; the refinement loop stops
// when this stops growing (a fixed point of the refinement operator).
std::size_t distinct_classes(std::span<const NodeId> nodes,
                             const std::vector<std::uint64_t>& hash,
                             std::vector<std::uint64_t>& scratch) {
  scratch.clear();
  for (const NodeId v : nodes) scratch.push_back(hash[static_cast<std::size_t>(v)]);
  std::sort(scratch.begin(), scratch.end());
  return static_cast<std::size_t>(
      std::unique(scratch.begin(), scratch.end()) - scratch.begin());
}

// Union-find weakly connected components + min-original-id labeling +
// ascending-id grouping: the prefix shared by both canonical_partition_index
// overloads. Leaves `order` grouped by partition with ascending original ids
// inside each group (refinement re-sorts the groups into canonical order).
void build_partition_groups(const TaskGraph& graph, CanonicalPartitionIndex& index) {
  const std::size_t n = graph.node_count();
  index.component.assign(n, -1);
  index.node_hash.assign(n, 0);
  index.rank.assign(n, 0);
  index.order.resize(n);

  // Weakly connected components over ALL edges (buffer edges included):
  // union-find with path halving.
  std::vector<NodeId> parent(n);
  for (std::size_t v = 0; v < n; ++v) parent[v] = static_cast<NodeId>(v);
  const auto find = [&parent](NodeId v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  };
  for (const Edge& edge : graph.edges()) {
    const NodeId a = find(edge.src);
    const NodeId b = find(edge.dst);
    if (a != b) parent[static_cast<std::size_t>(b)] = a;
  }

  // Label partitions in order of their minimal original node id: the ascending
  // scan reaches each root's first member before any other, so labels are
  // assigned in that order.
  std::int32_t count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto r = static_cast<std::size_t>(find(static_cast<NodeId>(v)));
    if (index.component[r] < 0) index.component[r] = count++;
    index.component[v] = index.component[r];
  }
  index.count = count;

  // Group nodes by partition (counting sort keeps ascending id order within
  // each group, the order the refinement loop iterates).
  index.offsets.assign(static_cast<std::size_t>(count) + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    ++index.offsets[static_cast<std::size_t>(index.component[v]) + 1];
  }
  for (std::size_t c = 0; c < static_cast<std::size_t>(count); ++c) {
    index.offsets[c + 1] += index.offsets[c];
  }
  std::vector<std::size_t> cursor(index.offsets.begin(), index.offsets.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    index.order[cursor[static_cast<std::size_t>(index.component[v])]++] =
        static_cast<NodeId>(v);
  }
}

// Seed hash from per-node intrinsic structure. The generalized level
// (Eq. level recurrence) is included because it separates long chains
// immediately — pure neighbor-multiset refinement would need O(diameter)
// rounds for those.
std::uint64_t seed_hash(const TaskGraph& graph, NodeId v, const Rational& level) {
  std::uint64_t h = avalanche(0x73747347ULL);  // arbitrary fixed seed
  h = hash_combine(h, static_cast<std::uint64_t>(graph.kind(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(graph.output_volume(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(graph.input_volume(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(graph.in_degree(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(graph.out_degree(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(level.num()));
  h = hash_combine(h, static_cast<std::uint64_t>(level.den()));
  return h;
}

struct RefineScratch {
  std::vector<std::uint64_t> next;  ///< node-indexed, sized once per graph
  std::vector<std::uint64_t> sig;
  std::vector<std::uint64_t> scratch;
};

// Weisfeiler-Leman refinement + canonical (hash, original id) sort + rank
// assignment for partition c. index.node_hash must hold the seed hashes of
// the partition's nodes. Everything the loop reads — seeds, neighbor
// volumes/hashes, the stop rule — is intrinsic to the partition, so running
// it on the whole graph and on an extracted partition yields identical
// hashes (the invariance canonical_partition_form needs).
void refine_partition(const TaskGraph& graph, CanonicalPartitionIndex& index,
                      std::int32_t c, RefineScratch& rs) {
  constexpr int kMaxRounds = 32;
  const std::span<const NodeId> nodes = index.nodes(c);
  std::size_t classes = distinct_classes(nodes, index.node_hash, rs.scratch);
  for (int round = 0; round < kMaxRounds && classes < nodes.size(); ++round) {
    for (const NodeId v : nodes) {
      rs.sig.clear();
      for (const EdgeId e : graph.in_edges(v)) {
        const Edge& edge = graph.edge(e);
        rs.sig.push_back(hash_combine(
            hash_combine(1, static_cast<std::uint64_t>(edge.volume)),
            index.node_hash[static_cast<std::size_t>(edge.src)]));
      }
      for (const EdgeId e : graph.out_edges(v)) {
        const Edge& edge = graph.edge(e);
        rs.sig.push_back(hash_combine(
            hash_combine(2, static_cast<std::uint64_t>(edge.volume)),
            index.node_hash[static_cast<std::size_t>(edge.dst)]));
      }
      // Sorting makes the fold order-free: the signature hashes a multiset
      // of (direction, volume, neighbor class), never edge-id order.
      std::sort(rs.sig.begin(), rs.sig.end());
      std::uint64_t h = index.node_hash[static_cast<std::size_t>(v)];
      for (const std::uint64_t s : rs.sig) h = hash_combine(h, s);
      rs.next[static_cast<std::size_t>(v)] = hash_combine(h, rs.sig.size());
    }
    for (const NodeId v : nodes) {
      index.node_hash[static_cast<std::size_t>(v)] =
          rs.next[static_cast<std::size_t>(v)];
    }
    const std::size_t refined = distinct_classes(nodes, index.node_hash, rs.scratch);
    if (refined == classes) break;
    classes = refined;
  }

  // Canonical order: (stabilized hash, original id) within the partition;
  // ranks are positions in that order.
  const auto begin = index.order.begin() + static_cast<std::ptrdiff_t>(
                                               index.offsets[static_cast<std::size_t>(c)]);
  const auto end = index.order.begin() + static_cast<std::ptrdiff_t>(
                                             index.offsets[static_cast<std::size_t>(c) + 1]);
  std::sort(begin, end, [&index](NodeId a, NodeId b) {
    const std::uint64_t ha = index.node_hash[static_cast<std::size_t>(a)];
    const std::uint64_t hb = index.node_hash[static_cast<std::size_t>(b)];
    if (ha != hb) return ha < hb;
    return a < b;
  });
  for (auto it = begin; it != end; ++it) {
    index.rank[static_cast<std::size_t>(*it)] = static_cast<std::int32_t>(it - begin);
  }
}

// Raw positional content of partition c while its order slice is still in
// ascending-original-id order: the PartitionCanonMemo key. Same layout as
// canonical_partition_form except destinations are recorded by position
// within the id-ordered node list (`pos`) instead of canonical rank — ranks
// are exactly what a memo probe does not yet know. Writes into `out` so the
// per-partition loop reuses one buffer instead of allocating per probe.
void partition_raw_form(const TaskGraph& graph, std::span<const NodeId> nodes,
                        const std::vector<std::int32_t>& pos, std::string& out) {
  std::size_t local_edges = 0;
  for (const NodeId v : nodes) local_edges += graph.out_degree(v);

  out.resize(16 + nodes.size() * 17 + local_edges * 16);
  char* p = out.data();
  const auto put64 = [&p](std::int64_t value) {
    std::memcpy(p, &value, 8);
    p += 8;
  };
  put64(static_cast<std::int64_t>(nodes.size()));
  put64(static_cast<std::int64_t>(local_edges));
  for (const NodeId v : nodes) {
    *p++ = static_cast<char>(graph.kind(v));
    put64(graph.output_volume(v));
  }
  for (const NodeId v : nodes) {
    put64(static_cast<std::int64_t>(graph.out_degree(v)));
    for (const EdgeId e : graph.out_edges(v)) {
      const Edge& edge = graph.edge(e);
      put64(pos[static_cast<std::size_t>(edge.dst)]);
      put64(edge.volume);
    }
  }
  }

}  // namespace

CanonicalPartitionIndex canonical_partition_index(const TaskGraph& graph) {
  const std::size_t n = graph.node_count();
  CanonicalPartitionIndex index;
  build_partition_groups(graph, index);

  const std::vector<Rational> level = node_levels(graph);
  for (std::size_t v = 0; v < n; ++v) {
    index.node_hash[v] = seed_hash(graph, static_cast<NodeId>(v), level[v]);
  }

  RefineScratch rs;
  rs.next.resize(n);
  for (std::int32_t c = 0; c < index.count; ++c) refine_partition(graph, index, c, rs);
  return index;
}

CanonicalPartitionIndex canonical_partition_index(
    const TaskGraph& graph, PartitionCanonMemo* memo,
    std::vector<std::shared_ptr<const PartitionCanonMemo::Ranks>>* entries) {
  if (memo == nullptr) return canonical_partition_index(graph);

  const std::size_t n = graph.node_count();
  CanonicalPartitionIndex index;
  build_partition_groups(graph, index);
  if (entries) entries->assign(static_cast<std::size_t>(index.count), nullptr);

  // Position of each node within its partition's ascending-id listing — the
  // coordinate system of the memo key.
  std::vector<std::int32_t> pos(n, 0);
  for (std::int32_t c = 0; c < index.count; ++c) {
    const std::span<const NodeId> nodes = index.nodes(c);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      pos[static_cast<std::size_t>(nodes[i])] = static_cast<std::int32_t>(i);
    }
  }

  // Scratch for the miss path, sized lazily: an all-hit pass (the delta /
  // shared-stream steady state) never touches levels or refinement at all.
  RefineScratch rs;
  std::vector<Rational> level;
  std::vector<std::int32_t> indeg;
  std::vector<NodeId> ready;
  std::vector<NodeId> ids;  // ascending-id snapshot of the current slice
  std::string raw_buf;      // reused across partitions; copied only on a miss

  for (std::int32_t c = 0; c < index.count; ++c) {
    NodeId* const slice = index.order.data() + index.offsets[static_cast<std::size_t>(c)];
    const std::size_t size = index.offsets[static_cast<std::size_t>(c) + 1] -
                             index.offsets[static_cast<std::size_t>(c)];
    ids.assign(slice, slice + size);
    partition_raw_form(graph, {slice, size}, pos, raw_buf);

    if (auto hit = memo->find(raw_buf)) {
      for (std::size_t i = 0; i < size; ++i) {
        const NodeId v = ids[i];
        index.node_hash[static_cast<std::size_t>(v)] = hit->hash[i];
        index.rank[static_cast<std::size_t>(v)] = hit->rank[i];
        slice[hit->rank[i]] = v;
      }
      if (entries) (*entries)[static_cast<std::size_t>(c)] = std::move(hit);
      continue;
    }

    if (level.empty()) {
      rs.next.resize(n);
      level.assign(n, Rational(0));
      indeg.assign(n, 0);
    }
    // Partition-local generalized levels, mirroring the node_levels
    // recurrence: L(v) = 1 for nodes without inputs, else
    // max parent level + max(R(v), 1). Every in-edge of a partition node
    // lies inside the partition (components span ALL edges), so these equal
    // the whole-graph levels and the seeds match the plain overload's.
    ready.clear();
    for (const NodeId v : ids) {
      indeg[static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(graph.in_degree(v));
      if (indeg[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
    }
    std::size_t popped = 0;
    while (!ready.empty()) {
      const NodeId v = ready.back();
      ready.pop_back();
      ++popped;
      const auto ins = graph.in_edges(v);
      if (ins.empty()) {
        level[static_cast<std::size_t>(v)] = Rational(1);
      } else {
        Rational best(0);
        for (const EdgeId e : ins) {
          best = std::max(best, level[static_cast<std::size_t>(graph.edge(e).src)]);
        }
        level[static_cast<std::size_t>(v)] = best + std::max(graph.rate(v), Rational(1));
      }
      for (const EdgeId e : graph.out_edges(v)) {
        const NodeId w = graph.edge(e).dst;
        if (--indeg[static_cast<std::size_t>(w)] == 0) ready.push_back(w);
      }
    }
    if (popped != size) {
      throw std::invalid_argument("canonical_partition_index: graph contains a cycle");
    }

    for (const NodeId v : ids) {
      index.node_hash[static_cast<std::size_t>(v)] =
          seed_hash(graph, v, level[static_cast<std::size_t>(v)]);
    }
    refine_partition(graph, index, c, rs);

    PartitionCanonMemo::Ranks ranks;
    ranks.hash.reserve(size);
    ranks.rank.reserve(size);
    for (const NodeId v : ids) {
      ranks.hash.push_back(index.node_hash[static_cast<std::size_t>(v)]);
      ranks.rank.push_back(index.rank[static_cast<std::size_t>(v)]);
    }
    ranks.form = canonical_partition_form(graph, index, c);
    ranks.form_digest = fnv1a64(ranks.form);
    auto resident = memo->insert(raw_buf, std::move(ranks));
    if (entries) (*entries)[static_cast<std::size_t>(c)] = std::move(resident);
  }
  return index;
}

std::shared_ptr<const PartitionCanonMemo::Ranks> PartitionCanonMemo::find(
    const std::string& raw) {
  const std::uint64_t digest = fnv1a64(raw);
  const MutexLock lock(mutex_);
  if (const auto bucket = buckets_.find(digest); bucket != buckets_.end()) {
    for (const auto it : bucket->second) {
      if (it->raw == raw) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it);
        return it->ranks;
      }
    }
  }
  ++stats_.misses;
  return nullptr;
}

std::shared_ptr<const PartitionCanonMemo::Ranks> PartitionCanonMemo::insert(std::string raw,
                                                                            Ranks ranks) {
  const std::size_t weight = ranks.hash.size();
  auto owned = std::make_shared<const Ranks>(std::move(ranks));
  const std::uint64_t digest = fnv1a64(raw);
  const MutexLock lock(mutex_);
  auto& bucket = buckets_[digest];
  for (const auto it : bucket) {
    if (it->raw == raw) return it->ranks;  // lost a benign compute race
  }
  if (weight > capacity_) return owned;  // would evict everything: refuse
  lru_.push_front(Entry{digest, std::move(raw), weight, owned});
  bucket.push_back(lru_.begin());
  weight_ += weight;
  evict_to_capacity_locked();
  return owned;
}

void PartitionCanonMemo::evict_to_capacity_locked() {
  while (weight_ > capacity_ && !lru_.empty()) {
    const auto victim = std::prev(lru_.end());
    auto& bucket = buckets_[victim->digest];
    std::erase_if(bucket, [&victim](const auto it) { return it == victim; });
    if (bucket.empty()) buckets_.erase(victim->digest);
    weight_ -= victim->weight;
    lru_.pop_back();
  }
}

PartitionCanonMemo::Stats PartitionCanonMemo::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

std::size_t PartitionCanonMemo::size() const {
  const MutexLock lock(mutex_);
  return lru_.size();
}

std::size_t PartitionCanonMemo::total_weight() const {
  const MutexLock lock(mutex_);
  return weight_;
}

std::string canonical_partition_form(const TaskGraph& graph,
                                     const CanonicalPartitionIndex& index,
                                     std::int32_t c) {
  const std::span<const NodeId> nodes = index.nodes(c);
  std::size_t local_edges = 0;
  for (const NodeId v : nodes) local_edges += graph.out_degree(v);

  std::string out;
  out.resize(16 + nodes.size() * 17 + local_edges * 16);
  char* p = out.data();
  const auto put64 = [&p](std::int64_t value) {
    std::memcpy(p, &value, 8);
    p += 8;
  };
  put64(static_cast<std::int64_t>(nodes.size()));
  put64(static_cast<std::int64_t>(local_edges));
  for (const NodeId v : nodes) {
    *p++ = static_cast<char>(graph.kind(v));
    put64(graph.output_volume(v));
  }
  for (const NodeId v : nodes) {
    put64(static_cast<std::int64_t>(graph.out_degree(v)));
    for (const EdgeId e : graph.out_edges(v)) {
      const Edge& edge = graph.edge(e);
      put64(index.rank[static_cast<std::size_t>(edge.dst)]);
      put64(edge.volume);
    }
  }
  return out;
}

TaskGraph materialize_partition(const TaskGraph& graph,
                                const CanonicalPartitionIndex& index,
                                std::int32_t c,
                                std::vector<EdgeId>* edge_ids) {
  const std::span<const NodeId> nodes = index.nodes(c);
  TaskGraph local;
  for (const NodeId v : nodes) {
    switch (graph.kind(v)) {
      case NodeKind::kSource:
        local.add_source(graph.declared_output(v));
        break;
      case NodeKind::kCompute: {
        const NodeId lv = local.add_compute();
        if (graph.declared_output(v) > 0) local.declare_output(lv, graph.declared_output(v));
        break;
      }
      case NodeKind::kBuffer: {
        const NodeId lv = local.add_buffer();
        if (graph.declared_output(v) > 0) local.declare_output(lv, graph.declared_output(v));
        break;
      }
      case NodeKind::kSink:
        local.add_sink();
        break;
    }
  }
  if (edge_ids) edge_ids->clear();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const EdgeId e : graph.out_edges(nodes[i])) {
      const Edge& edge = graph.edge(e);
      local.add_edge(static_cast<NodeId>(i),
                     index.rank[static_cast<std::size_t>(edge.dst)], edge.volume);
      if (edge_ids) edge_ids->push_back(e);
    }
  }
  return local;
}

}  // namespace sts
