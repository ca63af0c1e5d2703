#include "graph/graph_edit.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string_view>

#include "support/text.hpp"

namespace sts {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("graph edit: " + what);
}

std::string_view op_name(GraphEdit::Op op) {
  switch (op) {
    case GraphEdit::Op::kAddNode: return "add_node";
    case GraphEdit::Op::kRemoveNode: return "remove_node";
    case GraphEdit::Op::kAddEdge: return "add_edge";
    case GraphEdit::Op::kRemoveEdge: return "remove_edge";
    case GraphEdit::Op::kSetOutput: return "set_output";
    case GraphEdit::Op::kSetEdgeVolume: return "set_edge_volume";
  }
  fail("unknown op enum");
}

std::string_view kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSource: return "source";
    case NodeKind::kSink: return "sink";
    case NodeKind::kCompute: return "compute";
    case NodeKind::kBuffer: return "buffer";
  }
  fail("unknown node kind enum");
}

NodeKind kind_from(const std::string& token) {
  if (token == "source") return NodeKind::kSource;
  if (token == "sink") return NodeKind::kSink;
  if (token == "compute") return NodeKind::kCompute;
  if (token == "buffer") return NodeKind::kBuffer;
  fail("unknown node kind '" + token + "'");
}

NodeId node_from(const JsonValue& json, std::string_view key) {
  const std::int64_t value = json.at(key).as_int();
  if (value < 0 || value > INT32_MAX) {
    fail("member '" + std::string(key) + "' out of NodeId range");
  }
  return static_cast<NodeId>(value);
}

}  // namespace

void append_graph_edit_json(std::string& out, const GraphEdit& edit) {
  out += "{\"op\": \"";
  out += op_name(edit.op);
  out += '"';
  switch (edit.op) {
    case GraphEdit::Op::kAddNode:
      out += ", \"kind\": \"";
      out += kind_name(edit.kind);
      out += '"';
      if (edit.volume != 0) {
        out += ", \"output\": ";
        append_number(out, edit.volume);
      }
      if (!edit.name.empty()) {
        out += ", \"name\": ";
        append_json_quoted(out, edit.name);
      }
      break;
    case GraphEdit::Op::kRemoveNode:
      out += ", \"node\": ";
      append_number(out, edit.node);
      break;
    case GraphEdit::Op::kAddEdge:
    case GraphEdit::Op::kSetEdgeVolume:
      out += ", \"src\": ";
      append_number(out, edit.src);
      out += ", \"dst\": ";
      append_number(out, edit.dst);
      out += ", \"volume\": ";
      append_number(out, edit.volume);
      break;
    case GraphEdit::Op::kRemoveEdge:
      out += ", \"src\": ";
      append_number(out, edit.src);
      out += ", \"dst\": ";
      append_number(out, edit.dst);
      break;
    case GraphEdit::Op::kSetOutput:
      out += ", \"node\": ";
      append_number(out, edit.node);
      out += ", \"volume\": ";
      append_number(out, edit.volume);
      break;
  }
  out += '}';
}

GraphEdit graph_edit_from_json(const JsonValue& json) {
  GraphEdit edit;
  const std::string& op = json.at("op").as_string();
  if (op == "add_node") {
    reject_unknown_members(json, {"op", "kind", "output", "name"}, "graph edit", "add_node");
    edit.op = GraphEdit::Op::kAddNode;
    edit.kind = kind_from(json.at("kind").as_string());
    if (const JsonValue* output = json.find("output")) {
      edit.volume = output->as_int();
      if (edit.volume <= 0) fail("add_node output must be positive");
    }
    if (const JsonValue* name = json.find("name")) edit.name = name->as_string();
  } else if (op == "remove_node") {
    reject_unknown_members(json, {"op", "node"}, "graph edit", "remove_node");
    edit.op = GraphEdit::Op::kRemoveNode;
    edit.node = node_from(json, "node");
  } else if (op == "add_edge") {
    reject_unknown_members(json, {"op", "src", "dst", "volume"}, "graph edit", "add_edge");
    edit.op = GraphEdit::Op::kAddEdge;
    edit.src = node_from(json, "src");
    edit.dst = node_from(json, "dst");
    edit.volume = json.at("volume").as_int();
    if (edit.volume <= 0) fail("add_edge volume must be positive");
  } else if (op == "remove_edge") {
    reject_unknown_members(json, {"op", "src", "dst"}, "graph edit", "remove_edge");
    edit.op = GraphEdit::Op::kRemoveEdge;
    edit.src = node_from(json, "src");
    edit.dst = node_from(json, "dst");
  } else if (op == "set_output") {
    reject_unknown_members(json, {"op", "node", "volume"}, "graph edit", "set_output");
    edit.op = GraphEdit::Op::kSetOutput;
    edit.node = node_from(json, "node");
    edit.volume = json.at("volume").as_int();
    if (edit.volume <= 0) fail("set_output volume must be positive");
  } else if (op == "set_edge_volume") {
    reject_unknown_members(json, {"op", "src", "dst", "volume"}, "graph edit",
                           "set_edge_volume");
    edit.op = GraphEdit::Op::kSetEdgeVolume;
    edit.src = node_from(json, "src");
    edit.dst = node_from(json, "dst");
    edit.volume = json.at("volume").as_int();
    if (edit.volume <= 0) fail("set_edge_volume volume must be positive");
  } else {
    fail("unknown op '" + op + "'");
  }
  return edit;
}

TaskGraph apply_graph_edits(const TaskGraph& base, std::span<const GraphEdit> edits) {
  // The edits apply to a copy's records in place. Until the list ends a
  // record may hold a value the public mutators would refuse (a C++-built
  // edit with a non-positive volume, a self loop): a later edit may still
  // overwrite or remove it, so the checks run once, at the end, in the
  // order a node-by-node then edge-by-edge rebuild would hit them.
  TaskGraph out(base);
  std::vector<TaskGraph::NodeRec>& nodes = out.nodes_;
  std::vector<Edge>& edges = out.edges_;
  const auto base_nodes = static_cast<NodeId>(base.node_count());
  const auto base_edges = static_cast<EdgeId>(base.edge_count());

  // Removal marks, sized on the first removal (most edit lists have none).
  std::vector<bool> node_dead;
  std::vector<bool> edge_dead;
  const auto dead = [](const std::vector<bool>& marks, std::int32_t id) {
    return static_cast<std::size_t>(id) < marks.size() && marks[static_cast<std::size_t>(id)];
  };
  const auto mark = [](std::vector<bool>& marks, std::size_t size, std::int32_t id) {
    if (marks.size() < size) marks.resize(size);
    marks[static_cast<std::size_t>(id)] = true;
  };
  // Base edges whose volume an edit overwrote (checked at the end, with the
  // added edges).
  std::vector<EdgeId> written;

  const auto check_alive = [&](NodeId v, const char* role) {
    if (v < 0 || static_cast<std::size_t>(v) >= nodes.size()) {
      fail(std::string(role) + " node " + std::to_string(v) + " out of range");
    }
    if (dead(node_dead, v)) fail(std::string(role) + " node " + std::to_string(v) + " was removed");
  };
  // First not-yet-removed edge with the given endpoints, in insertion order:
  // base edges (the base's out span of `src` lists them in id order) come
  // before every added edge.
  const auto find_edge = [&](NodeId src, NodeId dst) -> EdgeId {
    if (src < base_nodes) {
      for (const EdgeId e : base.out_edges(src)) {
        if (edges[static_cast<std::size_t>(e)].dst == dst && !dead(edge_dead, e)) return e;
      }
    }
    for (auto e = base_edges; static_cast<std::size_t>(e) < edges.size(); ++e) {
      const Edge& edge = edges[static_cast<std::size_t>(e)];
      if (edge.src == src && edge.dst == dst && !dead(edge_dead, e)) return e;
    }
    return -1;
  };

  for (const GraphEdit& edit : edits) {
    switch (edit.op) {
      case GraphEdit::Op::kAddNode:
        if (edit.kind == NodeKind::kSource && edit.volume <= 0) {
          fail("add_node source requires a positive output");
        }
        nodes.push_back({edit.kind, edit.name, edit.volume});
        break;
      case GraphEdit::Op::kRemoveNode: {
        check_alive(edit.node, "remove_node");
        mark(node_dead, nodes.size(), edit.node);
        const auto kill = [&](EdgeId e) { mark(edge_dead, edges.size(), e); };
        if (edit.node < base_nodes) {
          for (const EdgeId e : base.out_edges(edit.node)) kill(e);
          for (const EdgeId e : base.in_edges(edit.node)) kill(e);
        }
        for (auto e = base_edges; static_cast<std::size_t>(e) < edges.size(); ++e) {
          const Edge& edge = edges[static_cast<std::size_t>(e)];
          if (edge.src == edit.node || edge.dst == edit.node) kill(e);
        }
        break;
      }
      case GraphEdit::Op::kAddEdge:
        check_alive(edit.src, "add_edge src");
        check_alive(edit.dst, "add_edge dst");
        edges.push_back(Edge{edit.src, edit.dst, edit.volume});
        break;
      case GraphEdit::Op::kRemoveEdge: {
        check_alive(edit.src, "remove_edge src");
        check_alive(edit.dst, "remove_edge dst");
        const EdgeId e = find_edge(edit.src, edit.dst);
        if (e < 0) {
          fail("remove_edge: no edge " + std::to_string(edit.src) + " -> " +
               std::to_string(edit.dst));
        }
        mark(edge_dead, edges.size(), e);
        break;
      }
      case GraphEdit::Op::kSetOutput:
        check_alive(edit.node, "set_output");
        nodes[static_cast<std::size_t>(edit.node)].declared_output = edit.volume;
        break;
      case GraphEdit::Op::kSetEdgeVolume: {
        check_alive(edit.src, "set_edge_volume src");
        check_alive(edit.dst, "set_edge_volume dst");
        const EdgeId e = find_edge(edit.src, edit.dst);
        if (e < 0) {
          fail("set_edge_volume: no edge " + std::to_string(edit.src) + " -> " +
               std::to_string(edit.dst));
        }
        edges[static_cast<std::size_t>(e)].volume = edit.volume;
        if (e < base_edges) written.push_back(e);
        break;
      }
    }
  }

  // Declared outputs: a source must keep a positive one; a sink holds none;
  // a non-positive one on a compute or buffer node means "none declared".
  for (std::size_t v = 0; v < nodes.size(); ++v) {
    if (dead(node_dead, static_cast<NodeId>(v))) continue;
    std::int64_t& declared = nodes[v].declared_output;
    switch (nodes[v].kind) {
      case NodeKind::kSource:
        if (declared <= 0) fail("node " + std::to_string(v) + ": source lost its declared output");
        break;
      case NodeKind::kSink:
        declared = 0;
        break;
      case NodeKind::kCompute:
      case NodeKind::kBuffer:
        declared = std::max<std::int64_t>(declared, 0);
        break;
    }
  }
  // Edge rules of TaskGraph::add_edge, over the edges the edits wrote
  // (untouched base edges already satisfy them), in id order.
  std::sort(written.begin(), written.end());
  for (auto e = base_edges; static_cast<std::size_t>(e) < edges.size(); ++e) written.push_back(e);
  for (const EdgeId e : written) {
    const Edge& edge = edges[static_cast<std::size_t>(e)];
    if (dead(edge_dead, e)) continue;
    if (edge.volume <= 0) throw std::invalid_argument("add_edge: volume must be > 0");
    if (edge.src == edge.dst) throw std::invalid_argument("add_edge: self loop");
  }

  // Dense renumbering: dead nodes and edges drop out, everything else keeps
  // its relative position so an undo list round-trips exactly.
  if (!node_dead.empty() || !edge_dead.empty()) {
    std::vector<NodeId> remap(nodes.size(), kInvalidNode);
    std::size_t kept = 0;
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      if (dead(node_dead, static_cast<NodeId>(v))) continue;
      remap[v] = static_cast<NodeId>(kept);
      if (kept != v) nodes[kept] = std::move(nodes[v]);
      ++kept;
    }
    nodes.resize(kept);
    kept = 0;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (dead(edge_dead, static_cast<EdgeId>(e))) continue;
      const Edge& edge = edges[e];
      edges[kept++] = Edge{remap[static_cast<std::size_t>(edge.src)],
                           remap[static_cast<std::size_t>(edge.dst)], edge.volume};
    }
    edges.resize(kept);
  }
  return out;
}

std::optional<std::vector<NodeId>> local_edit_scope(std::span<const GraphEdit> edits) {
  std::vector<NodeId> scope;
  scope.reserve(2 * edits.size());
  for (const GraphEdit& edit : edits) {
    if (edit.volume <= 0) return std::nullopt;
    if (edit.op == GraphEdit::Op::kSetOutput) {
      scope.push_back(edit.node);
    } else if (edit.op == GraphEdit::Op::kSetEdgeVolume) {
      scope.push_back(edit.src);
      scope.push_back(edit.dst);
    } else {
      return std::nullopt;
    }
  }
  std::sort(scope.begin(), scope.end());
  scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
  return scope;
}

}  // namespace sts
