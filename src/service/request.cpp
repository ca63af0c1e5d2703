#include "service/request.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "graph/serialization.hpp"
#include "pipeline/schedule_cache.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "support/text.hpp"
#include "workloads/synthetic.hpp"

namespace sts {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("ScheduleRequest: " + what);
}

void reject_unknown(const JsonValue& object, std::initializer_list<std::string_view> allowed,
                    const char* what) {
  reject_unknown_members(object, allowed, "ScheduleRequest", what);
}

SimEngine sim_engine_from(const std::string& name) {
  if (name == "auto") return SimEngine::kAuto;
  if (name == "bulk" || name == "bulk-advance") return SimEngine::kBulkAdvance;
  if (name == "tick" || name == "tick-accurate") return SimEngine::kTickAccurate;
  fail("unknown sim engine '" + name + "'");
}

MachineConfig machine_from_json(const JsonValue& json) {
  reject_unknown(json, {"pes", "fifo", "mesh", "pe_speed"}, "machine");
  MachineConfig machine;
  if (const JsonValue* pes = json.find("pes")) machine.num_pes = pes->as_int();
  if (const JsonValue* fifo = json.find("fifo")) machine.default_fifo_capacity = fifo->as_int();
  if (const JsonValue* mesh = json.find("mesh")) machine.place_on_mesh = mesh->as_bool();
  if (const JsonValue* speeds = json.find("pe_speed")) {
    machine.pe_speed.reserve(speeds->items().size());
    for (const JsonValue& s : speeds->items()) machine.pe_speed.push_back(s.as_double());
  }
  return machine;
}

SimOptions sim_from_json(const JsonValue& json) {
  reject_unknown(json, {"engine", "max_ticks", "trace"}, "sim");
  SimOptions sim;
  if (const JsonValue* engine = json.find("engine")) {
    sim.engine = sim_engine_from(engine->as_string());
  }
  if (const JsonValue* ticks = json.find("max_ticks")) {
    sim.max_ticks = ticks->as_int();
    if (sim.max_ticks <= 0) fail("sim.max_ticks must be positive");
  }
  if (const JsonValue* trace = json.find("trace")) sim.record_trace = trace->as_bool();
  return sim;
}

GraphRef graph_ref_from_json(const JsonValue& json) {
  reject_unknown(json, {"generator", "param", "seed"}, "graph ref");
  GraphRef ref;
  ref.generator = json.at("generator").as_string();
  ref.param = json.at("param").as_int();
  const std::int64_t seed = json.at("seed").as_int();
  if (seed < 0) fail("graph ref seed must be non-negative");
  ref.seed = static_cast<std::uint64_t>(seed);
  return ref;
}

TaskGraph materialize(const GraphRef& ref) {
  if (ref.param < 0 || ref.param > std::numeric_limits<int>::max()) {
    fail("graph ref param " + std::to_string(ref.param) + " out of range");
  }
  const int param = static_cast<int>(ref.param);
  if (ref.generator == "chain") return make_chain(param, ref.seed);
  if (ref.generator == "fft") return make_fft(param, ref.seed);
  if (ref.generator == "gaussian") return make_gaussian_elimination(param, ref.seed);
  if (ref.generator == "cholesky") return make_cholesky(param, ref.seed);
  fail("unknown graph generator '" + ref.generator + "'");
}

}  // namespace

const char* to_string(AdmissionPolicy policy) noexcept {
  return policy == AdmissionPolicy::kBlock ? "block" : "reject";
}

std::string GraphRef::label() const {
  std::string out = generator;
  out += ' ';
  append_number(out, param);
  out += ' ';
  append_number(out, seed);
  return out;
}

const std::string& ScheduleRequest::key() const {
  if (!key_.value.empty()) return key_.value;
  std::string key;
  key.reserve(96 + 9 * graph.node_count() + 24 * graph.edge_count());
  key += "schema=";
  append_number(key, schema_version);
  key += '\n';
  key += canonical_cache_key(graph, scheduler, machine);
  if (sim) {
    key += '\n';
    key += sim->cache_key();
  }
  key_.hash = fnv1a64(key);
  key_.hashed = true;
  key_.value = std::move(key);
  return key_.value;
}

std::uint64_t ScheduleRequest::key_hash() const {
  if (!key_.hashed) (void)key();
  return key_.hash;
}

std::string ScheduleRequest::release_key() {
  (void)key();
  return std::move(key_.value);
}

std::string ScheduleRequest::key_digest() const {
  std::uint64_t hash = key_hash();
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = "0123456789abcdef"[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

std::string ScheduleRequest::to_json() const {
  std::string out;
  out.reserve(128 + (graph_ref ? 0 : 40 * graph.node_count() + 24 * graph.edge_count()));
  out += "{\"schema_version\": ";
  append_number(out, schema_version);
  out += ", \"scheduler\": ";
  append_json_quoted(out, scheduler);
  out += ", \"machine\": {\"pes\": ";
  append_number(out, machine.num_pes);
  out += ", \"fifo\": ";
  append_number(out, machine.default_fifo_capacity);
  if (machine.place_on_mesh) out += ", \"mesh\": true";
  if (!machine.pe_speed.empty()) {
    out += ", \"pe_speed\": [";
    for (std::size_t i = 0; i < machine.pe_speed.size(); ++i) {
      if (i > 0) out += ", ";
      append_number(out, machine.pe_speed[i]);
    }
    out += ']';
  }
  if (base_key) {
    // Delta envelope: the scenario is (base identity, edit list); the
    // materialized graph, if any, is a service-side artifact and would bloat
    // the line without adding identity.
    out += "}, \"base_key\": ";
    append_json_quoted(out, *base_key);
    out += ", \"edits\": [";
    for (std::size_t i = 0; i < edits.size(); ++i) {
      if (i > 0) out += ", ";
      append_graph_edit_json(out, edits[i]);
    }
    out += ']';
  } else if (graph_ref) {
    out += "}, \"graph\": {\"generator\": ";
    append_json_quoted(out, graph_ref->generator);
    out += ", \"param\": ";
    append_number(out, graph_ref->param);
    out += ", \"seed\": ";
    append_number(out, graph_ref->seed);
    out += '}';
  } else {
    out += "}, \"graph\": ";
    append_task_graph_json(out, graph);
  }
  if (sim) {
    out += ", \"sim\": {\"engine\": ";
    append_json_quoted(out, to_string(sim->engine));
    out += ", \"max_ticks\": ";
    append_number(out, sim->max_ticks);
    if (sim->record_trace) out += ", \"trace\": true";
    out += '}';
  }
  if (admission != AdmissionPolicy::kBlock) {
    out += ", \"admission\": ";
    append_json_quoted(out, to_string(admission));
  }
  if (priority != 0) {
    out += ", \"priority\": ";
    append_number(out, priority);
  }
  if (!label.empty()) {
    out += ", \"label\": ";
    append_json_quoted(out, label);
  }
  out += '}';
  return out;
}

ScheduleRequest ScheduleRequest::from_json(std::string_view text) {
  const JsonValue json = parse_json(text);
  reject_unknown(json,
                 {"schema_version", "scheduler", "machine", "graph", "base_key", "edits",
                  "sim", "admission", "priority", "label"},
                 "request");

  ScheduleRequest request;
  const std::int64_t version = json.at("schema_version").as_int();
  if (version < 1 || version > kScheduleSchemaVersion) {
    fail("unsupported schema_version " + std::to_string(version) + " (this build speaks up to " +
         std::to_string(kScheduleSchemaVersion) + ")");
  }
  request.schema_version = static_cast<int>(version);

  request.scheduler = json.at("scheduler").as_string();
  if (request.scheduler.empty()) fail("scheduler must be non-empty");

  if (const JsonValue* machine = json.find("machine")) {
    request.machine = machine_from_json(*machine);
  }

  if (const JsonValue* base = json.find("base_key")) {
    if (json.find("graph") != nullptr) fail("base_key excludes an inline graph");
    if (version < 2) fail("base_key requires schema_version >= 2");
    request.base_key = base->as_string();
    if (request.base_key->empty()) fail("base_key must be non-empty");
    if (const JsonValue* edits = json.find("edits")) {
      request.edits.reserve(edits->items().size());
      for (const JsonValue& edit : edits->items()) {
        request.edits.push_back(graph_edit_from_json(edit));
      }
    }
  } else {
    if (json.find("edits") != nullptr) fail("edits require a base_key");
    const JsonValue& graph = json.at("graph");
    if (graph.find("generator") != nullptr) {
      request.graph_ref = graph_ref_from_json(graph);
      request.graph = materialize(*request.graph_ref);
    } else {
      request.graph = task_graph_from_json(graph);
    }
  }

  if (const JsonValue* sim = json.find("sim")) request.sim = sim_from_json(*sim);

  if (const JsonValue* admission = json.find("admission")) {
    const std::string& name = admission->as_string();
    if (name == "block") {
      request.admission = AdmissionPolicy::kBlock;
    } else if (name == "reject") {
      request.admission = AdmissionPolicy::kReject;
    } else {
      fail("unknown admission policy '" + name + "'");
    }
  }

  if (const JsonValue* priority = json.find("priority")) {
    const std::int64_t p = priority->as_int();
    if (p < std::numeric_limits<std::int32_t>::min() ||
        p > std::numeric_limits<std::int32_t>::max()) {
      fail("priority out of range");
    }
    request.priority = static_cast<std::int32_t>(p);
  }

  if (const JsonValue* label = json.find("label")) request.label = label->as_string();
  return request;
}

const char* to_string(ScheduleResponse::Status status) noexcept {
  switch (status) {
    case ScheduleResponse::Status::kOk: return "ok";
    case ScheduleResponse::Status::kRejected: return "rejected";
    case ScheduleResponse::Status::kError: return "error";
  }
  return "?";
}

std::string ScheduleResponse::to_json() const {
  std::string out = "{\"status\": \"";
  out += to_string(status);
  out += '"';
  switch (status) {
    case Status::kOk:
      out += ", \"scheduler\": ";
      append_json_quoted(out, result->scheduler);
      out += ", \"makespan\": ";
      append_number(out, result->makespan);
      out += ", \"speedup\": ";
      append_number(out, result->metrics.speedup);
      out += ", \"fifo_capacity\": ";
      append_number(out, result->metrics.fifo_capacity);
      if (result->sim) {
        out += ", \"sim_makespan\": ";
        append_number(out, result->sim->makespan);
        out += ", \"sim_engine\": ";
        append_json_quoted(out, to_string(result->sim->engine_used));
        if (result->sim->deadlocked) out += ", \"deadlocked\": true";
      }
      break;
    case Status::kRejected:
      out += ", \"shard\": ";
      append_number(out, rejected->shard);
      out += ", \"depth\": ";
      append_number(out, rejected->depth);
      out += ", \"limit\": ";
      append_number(out, rejected->limit);
      if (rejected->backend) {
        out += ", \"backend\": ";
        append_number(out, *rejected->backend);
      }
      break;
    case Status::kError:
      out += ", \"error\": ";
      append_json_quoted(out, error);
      break;
  }
  out += '}';
  return out;
}

ScheduleResponse ScheduleResponse::from_json(std::string_view text) {
  // Response bodies are tiny (one flat object), so a tight depth bound is
  // free hardening against a malicious or confused server.
  const JsonValue json = parse_json(text, JsonLimits{8, 1u << 20});
  ScheduleResponse response;
  const std::string& status = json.at("status").as_string();
  if (status == "ok") {
    reject_unknown_members(json,
                           {"status", "scheduler", "makespan", "speedup", "fifo_capacity",
                            "sim_makespan", "sim_engine", "deadlocked"},
                           "ScheduleResponse", "response");
    auto result = std::make_shared<ScheduleResult>();
    result->scheduler = json.at("scheduler").as_string();
    result->makespan = json.at("makespan").as_int();
    result->metrics.speedup = json.at("speedup").as_double();
    result->metrics.fifo_capacity = json.at("fifo_capacity").as_int();
    if (const JsonValue* sim_makespan = json.find("sim_makespan")) {
      SimResult sim;
      sim.makespan = sim_makespan->as_int();
      const std::string& engine = json.at("sim_engine").as_string();
      if (engine == "bulk-advance") {
        sim.engine_used = SimEngine::kBulkAdvance;
      } else if (engine == "tick-accurate") {
        sim.engine_used = SimEngine::kTickAccurate;
      } else {
        throw std::invalid_argument("ScheduleResponse: unknown sim_engine '" + engine + "'");
      }
      if (const JsonValue* deadlocked = json.find("deadlocked")) {
        sim.deadlocked = deadlocked->as_bool();
      }
      result->sim = std::move(sim);
    }
    response.status = Status::kOk;
    response.result = std::move(result);
  } else if (status == "rejected") {
    reject_unknown_members(json, {"status", "shard", "depth", "limit", "backend"},
                           "ScheduleResponse", "response");
    Rejected rejected;
    const auto index = [&json](const char* key) -> std::size_t {
      const std::int64_t value = json.at(key).as_int();
      if (value < 0) {
        throw std::invalid_argument(std::string("ScheduleResponse: negative ") + key);
      }
      return static_cast<std::size_t>(value);
    };
    rejected.shard = index("shard");
    rejected.depth = index("depth");
    rejected.limit = index("limit");
    if (json.find("backend") != nullptr) rejected.backend = index("backend");
    response.status = Status::kRejected;
    response.rejected = rejected;
  } else if (status == "error") {
    reject_unknown_members(json, {"status", "error"}, "ScheduleResponse", "response");
    response.status = Status::kError;
    response.error = json.at("error").as_string();
  } else {
    throw std::invalid_argument("ScheduleResponse: unknown status '" + status + "'");
  }
  return response;
}

}  // namespace sts
