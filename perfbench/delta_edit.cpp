// delta_edit: delta requests (base_key + 1-2 GraphEdits touching one
// component) against one registered multi-component base graph, served by an
// in-process ScheduleService with subgraph memoization on. Edit
// materialization, keying, validation and fragment assembly dominate; the
// partitioner runs only on the touched component.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "graph/graph_edit.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/result_fingerprint.hpp"
#include "service/schedule_service.hpp"
#include "support/prng.hpp"
#include "workload.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {
namespace {

constexpr int kComponents = 48;
constexpr int kLayers = 15;
constexpr int kWidth = 25;
constexpr int kFanIn = 3;
constexpr std::int64_t kPes = 64;
constexpr std::uint64_t kWarmUp = 16;
constexpr std::uint64_t kDigested = 32;  ///< first positions of the window
constexpr std::size_t kRechecks = 6;
constexpr std::uint64_t kTraceEvery = 4;  ///< traced sample of the window
const char* const kScheduler = "streaming-rlx";

/// Layered component with bounded fan-in, volumes randomized per seed.
sts::TaskGraph make_component(std::uint64_t seed) {
  sts::Prng rng(seed ^ 0x5851f42d4c957f2dULL);
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (int l = 1; l < kLayers; ++l) {
    for (int v = 0; v < kWidth; ++v) {
      for (int k = 0; k < kFanIn; ++k) {
        edges.emplace_back((l - 1) * kWidth + static_cast<int>(rng.uniform_int(0, kWidth - 1)),
                           l * kWidth + v);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return sts::canonical_from_topology(kLayers * kWidth, edges, seed);
}

/// Appends `part` to `g` as an independent connected component.
void append_component(sts::TaskGraph& g, const sts::TaskGraph& part) {
  const auto base = static_cast<sts::NodeId>(g.node_count());
  for (sts::NodeId v = 0; static_cast<std::size_t>(v) < part.node_count(); ++v) {
    switch (part.kind(v)) {
      case sts::NodeKind::kSource:
        g.add_source(part.declared_output(v));
        break;
      case sts::NodeKind::kCompute: {
        const sts::NodeId nv = g.add_compute();
        if (part.declared_output(v) > 0) g.declare_output(nv, part.declared_output(v));
        break;
      }
      case sts::NodeKind::kBuffer: {
        const sts::NodeId nv = g.add_buffer();
        if (part.declared_output(v) > 0) g.declare_output(nv, part.declared_output(v));
        break;
      }
      case sts::NodeKind::kSink:
        g.add_sink();
        break;
    }
  }
  for (const sts::Edge& edge : part.edges()) {
    g.add_edge(base + edge.src, base + edge.dst, edge.volume);
  }
}

class DeltaEdit final : public Workload {
 public:
  explicit DeltaEdit(const RunOptions& options) : options_(options) {}

  void teardown() override { service_.reset(); }

  void setup() override {
    base_ = sts::TaskGraph();
    exits_.assign(kComponents, {});
    for (int c = 0; c < kComponents; ++c) {
      const auto first = static_cast<sts::NodeId>(base_.node_count());
      append_component(base_, make_component(1000 + static_cast<std::uint64_t>(c)));
      for (sts::NodeId v = first; static_cast<std::size_t>(v) < base_.node_count(); ++v) {
        if (base_.kind(v) == sts::NodeKind::kCompute && base_.out_degree(v) == 0 &&
            base_.declared_output(v) > 0) {
          exits_[static_cast<std::size_t>(c)].push_back(v);
        }
      }
      if (exits_[static_cast<std::size_t>(c)].size() < 2) {
        throw std::runtime_error("delta_edit: component without two exit nodes");
      }
    }
    sts::ServiceConfig config;
    config.num_workers = 2;
    config.base_registry_capacity = 16;  // the base stays hot; deltas rotate
    config.cache_capacity = std::size_t{1} << 18;  // deltas never repeat
    service_ = std::make_unique<sts::ScheduleService>(config);
    sts::ScheduleRequest base_request;
    base_request.graph = base_;
    base_request.scheduler = kScheduler;
    base_request.machine.num_pes = kPes;
    base_key_ = base_request.key_digest();
    const sts::ScheduleResponse response = service_->schedule(std::move(base_request));
    if (!response.ok()) throw std::runtime_error("delta_edit: base request failed");
  }

  void warm_up() override {
    std::vector<std::uint64_t> positions;
    for (std::uint64_t i = 0; i < kWarmUp; ++i) positions.push_back(i);
    const Window warm = run_positions(
        *service_, [this](std::uint64_t i) { return make(i); }, positions, false,
        [](std::uint64_t) { return false; });
    for (const Observation& obs : warm.observations) {
      if (!obs.ok) throw std::runtime_error("delta_edit warm-up: " + obs.error);
    }
    next_ = kWarmUp;
  }

  sts::ScheduleBackend& backend() override { return *service_; }

  StreamItem make(std::uint64_t index) override {
    StreamItem item;
    item.request.base_key = base_key_;
    item.request.edits = edits(index);
    item.request.scheduler = kScheduler;
    item.request.machine.num_pes = kPes;
    return item;
  }
  [[nodiscard]] std::uint64_t next_index() const override { return next_; }
  void advance(const Window& window) override {
    if (!window.observations.empty()) next_ = window.observations.back().index + 1;
  }
  [[nodiscard]] bool keep(std::uint64_t index) const override {
    return index >= kWarmUp && index < kWarmUp + kDigested;
  }

  [[nodiscard]] std::vector<std::string> class_names() const override { return {"delta"}; }
  /// The upper tail here follows the host, not the program: with four busy
  /// threads on four vCPUs, p99 spread 26% and p90 24% across ten seeds,
  /// against 10% for p50.
  [[nodiscard]] double tail_quantile() const override { return 0.75; }

  void verify(const Window& window, Report& report, Digest& digest) override {
    std::vector<const Observation*> kept;
    for (const Observation& obs : window.observations) {
      if (obs.result) kept.push_back(&obs);
    }
    if (kept.size() != kDigested) {
      report.fail("delta_edit: only " + std::to_string(kept.size()) + " of the first " +
                  std::to_string(kDigested) + " deltas completed");
    }
    speedups_.clear();
    for (const Observation* obs : kept) {
      digest.add(obs->index);
      digest.add(sts::result_fingerprint(*obs->result));
      speedups_.push_back(obs->speedup);
    }
    // The reference is a cold schedule of the materialized graph.
    sts::Prng rng(options_.seed ^ 0x64656c7461656469ULL);
    std::size_t checked = 0;
    for (std::size_t k = 0; k < kRechecks && !kept.empty(); ++k) {
      const Observation& obs =
          *kept[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(kept.size()) - 1))];
      const sts::TaskGraph edited = sts::apply_graph_edits(base_, edits(obs.index));
      sts::MachineConfig machine;
      machine.num_pes = kPes;
      const sts::ScheduleResult reference = sts::schedule_by_name(kScheduler, edited, machine);
      if (sts::result_fingerprint(reference) != sts::result_fingerprint(*obs.result)) {
        report.fail("delta_edit: delta " + std::to_string(obs.index) +
                    " differs from a cold schedule of the materialized graph");
      }
      ++checked;
    }
    std::printf("re-checked %zu delta_edit responses against cold schedules\n", checked);
  }

  [[nodiscard]] double speedup_geomean(Report& report) const override {
    if (speedups_.empty()) report.fail("delta_edit: no speedups from the digested deltas");
    return geomean(speedups_);
  }

  [[nodiscard]] double peak_rss() const override { return peak_rss_mb(); }

  void layers(const Window& traced, const sts::ServiceStats& delta, Tracer& tracer,
              Report& report) override {
    // Function times on the same inputs, called directly after the window,
    // for a sample of the traced requests; only those requests get spans.
    Window sampled;
    std::map<std::uint64_t, SubmitChildren> children;
    std::vector<double> apply_ms, key_ms, validate_ms, probe_us;
    for (const Observation& obs : traced.observations) {
      if (obs.index % kTraceEvery != 0) continue;
      sampled.observations.push_back(obs);
      const std::vector<sts::GraphEdit> list = edits(obs.index);
      sts::ScheduleRequest request;
      request.scheduler = kScheduler;
      request.machine.num_pes = kPes;
      const double apply = time_us([&] { request.graph = sts::apply_graph_edits(base_, list); });
      const double validate = time_us([&] { (void)request.graph.validate(); });
      const double key = time_us([&] { (void)request.key(); });
      probe_us.push_back(time_us([&] { (void)service_->cache().try_get(request.key()); }));
      apply_ms.push_back(apply * 1e-3);
      validate_ms.push_back(validate * 1e-3);
      key_ms.push_back(key * 1e-3);
      children[obs.index] = {{"graph.apply_edits", apply},
                             {"graph.validate", validate},
                             {"graph.key", key}};
    }
    report_no_network(report);
    report.percentile_metric("graph.apply_edits_ms_p50", percentile(apply_ms, 0.5), "ms", false);
    report.percentile_metric("graph.key_ms_p50", percentile(key_ms, 0.5), "ms", false);
    report.percentile_metric("graph.validate_ms_p50", percentile(validate_ms, 0.5), "ms", false);
    report.percentile_metric("cache.probe_us_p50", percentile(probe_us, 0.5), "us", false);
    report_pipeline_layers(traced, delta, true, report);

    trace_in_process(
        sampled, [&children](const Observation& obs) { return children.at(obs.index); }, 0,
        tracer);
    const std::map<std::string, double> shares =
        report_layer_shares(tracer.self_seconds(), {}, latency_sum_seconds(sampled), report);
    const auto share = [&shares](const char* layer) {
      const auto it = shares.find(layer);
      return it == shares.end() ? 0.0 : it->second;
    };
    const double graph_subgraph = share("graph") + share("subgraph");
    std::printf("design check: graph + subgraph carry %.1f%% of latency, dominant: %s\n",
                100.0 * graph_subgraph, graph_subgraph > 0.5 ? "yes" : "NO");
  }

 private:
  /// One or two set_output retunes of exit nodes in a single component.
  /// Component, exit and factor advance with the position, so no two
  /// positions produce the same edited graph.
  [[nodiscard]] std::vector<sts::GraphEdit> edits(std::uint64_t index) const {
    const std::uint64_t rotated = index + options_.seed % kComponents;
    const std::vector<sts::NodeId>& exits = exits_[rotated % kComponents];
    const std::uint64_t round = index / kComponents;
    const std::uint64_t slot = round % exits.size();
    const auto factor = static_cast<std::int64_t>(2 + round / exits.size());
    const auto retune = [&](sts::NodeId v) {
      sts::GraphEdit edit;
      edit.op = sts::GraphEdit::Op::kSetOutput;
      edit.node = v;
      edit.volume = base_.declared_output(v) * factor;
      return edit;
    };
    std::vector<sts::GraphEdit> list{retune(exits[slot])};
    sts::Prng rng(options_.seed * 0x2545f4914f6cdd1dULL + index);
    if (rng.uniform() < 0.5) list.push_back(retune(exits[(slot + 1) % exits.size()]));
    return list;
  }

  RunOptions options_;
  sts::TaskGraph base_;
  std::vector<std::vector<sts::NodeId>> exits_;
  std::string base_key_;
  std::unique_ptr<sts::ScheduleService> service_;
  std::uint64_t next_ = 0;
  std::vector<double> speedups_;
};

}  // namespace

std::unique_ptr<Workload> make_delta_edit(const RunOptions& options) {
  return std::make_unique<DeltaEdit>(options);
}

}  // namespace perfbench
