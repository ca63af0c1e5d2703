#include <algorithm>
#include <cstdio>
#include <map>

#include "workload.hpp"

namespace perfbench {

sts::ServiceStats stats_delta(const sts::ServiceStats& after, const sts::ServiceStats& before) {
  sts::ServiceStats d = after;
  d.submitted -= before.submitted;
  d.completed -= before.completed;
  d.failed -= before.failed;
  d.rejected -= before.rejected;
  d.simulated -= before.simulated;
  d.fast_path_hits -= before.fast_path_hits;
  d.cache.hits -= before.cache.hits;
  d.cache.misses -= before.cache.misses;
  d.cache.races -= before.cache.races;
  d.cache.evictions -= before.cache.evictions;
  d.cache.evicted_weight -= before.cache.evicted_weight;
  d.cache.expired -= before.cache.expired;
  d.subgraph.partition_hits -= before.subgraph.partition_hits;
  d.subgraph.partition_misses -= before.subgraph.partition_misses;
  d.subgraph.fragments_assembled -= before.subgraph.fragments_assembled;
  d.subgraph.delta_invalidated -= before.subgraph.delta_invalidated;
  d.canon.hits -= before.canon.hits;
  d.canon.misses -= before.canon.misses;
  return d;  // shard_max_depth stays the high-water mark since start
}

double latency_sum_seconds(const Window& window) {
  double sum = 0.0;
  for (const Observation& obs : window.observations) sum += obs.settled - obs.submit;
  return sum;
}

void report_no_network(Report& report) {
  for (const auto& [name, unit] : {std::pair{"net.encode_us_p50", "us"},
                                   {"net.decode_us_p50", "us"},
                                   {"net.healthz_rtt_us_p50", "us"},
                                   {"net.overhead_ms_p50", "ms"},
                                   {"net.http_errors", "count"}}) {
    report.not_measured(name, unit, "in-process workload");
  }
}

void trace_in_process(const Window& window,
                      const std::function<SubmitChildren(const Observation&)>& children,
                      std::uint64_t id_base, Tracer& tracer) {
  for (const Observation& obs : window.observations) {
    const std::uint64_t id = id_base + obs.index;
    const int root = tracer.add(id, -1, "client.request", obs.submit, obs.settled);
    const int submit = tracer.add(id, root, "service.submit", obs.submit, obs.submitted);
    double at = obs.submit;
    for (const auto& [name, us] : children(obs)) {
      const double end = std::min(obs.submitted, at + us * 1e-6);
      tracer.add(id, submit, name, at, end);
      at = end;
    }
    if (!obs.fast) {
      Observation shifted = obs;
      shifted.index = id;
      add_pass_spans(tracer, root, shifted);
    }
  }
}

namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void report_pipeline_layers(const Window& inproc, const sts::ServiceStats& delta,
                            bool subgraph_on, Report& report) {
  std::vector<double> submit_us;
  std::vector<double> queue_wait_ms;
  std::map<std::string, std::vector<double>> pass_ms;
  std::int64_t live_ticks = 0;
  std::int64_t ticks = 0;
  for (const Observation& obs : inproc.observations) {
    submit_us.push_back((obs.submitted - obs.submit) * 1e6);
    if (obs.fast || !obs.ok) continue;
    double passes = 0.0;
    for (const sts::PassTiming& t : obs.timings) {
      passes += t.seconds;
      pass_ms[pass_span_name(t.pass)].push_back(t.seconds * 1e3);
    }
    // Everything between submit() returning and the response that no pass
    // accounts for: queue wait plus the hand-offs around it.
    queue_wait_ms.push_back(std::max(0.0, (obs.settled - obs.submitted - passes) * 1e3));
    live_ticks += obs.live_ticks;
    ticks += obs.ticks_executed;
  }
  report.percentile_metric("service.submit_us_p50", percentile(submit_us, 0.5), "us", false);
  report.percentile_metric("service.queue_wait_ms_p50", percentile(queue_wait_ms, 0.5), "ms",
                           false);
  report.percentile_metric("service.queue_wait_ms_p99", percentile(queue_wait_ms, 0.99), "ms",
                           false);
  report.metric("service.fast_path_ratio", ratio(delta.fast_path_hits, delta.completed), "ratio");
  std::size_t depth = 0;
  for (const std::size_t d : delta.shard_max_depth) depth = std::max(depth, d);
  report.metric("service.max_queue_depth", static_cast<double>(depth), "count");

  const std::uint64_t lookups = delta.cache.hits + delta.cache.misses + delta.cache.races;
  report.metric("cache.hit_ratio", ratio(delta.cache.hits, lookups), "ratio");
  report.metric("cache.evictions", static_cast<double>(delta.cache.evictions), "count");
  report.metric("cache.races", static_cast<double>(delta.cache.races), "count");

  if (subgraph_on) {
    report.metric("subgraph.partition_hit_ratio",
                  ratio(delta.subgraph.partition_hits,
                        delta.subgraph.partition_hits + delta.subgraph.partition_misses),
                  "ratio");
    report.metric("subgraph.canon_hit_ratio",
                  ratio(delta.canon.hits, delta.canon.hits + delta.canon.misses), "ratio");
  } else {
    report.not_measured("subgraph.partition_hit_ratio", "ratio", "subgraph memoization off");
    report.not_measured("subgraph.canon_hit_ratio", "ratio", "subgraph memoization off");
  }

  const auto pass_metric = [&](const std::string& span, const std::string& metric, double q) {
    const auto it = pass_ms.find(span);
    if (it == pass_ms.end()) {
      report.not_measured(metric, "ms", "no " + span + " pass among this workload's misses");
      return;
    }
    report.percentile_metric(metric, percentile(it->second, q), "ms", false);
  };
  pass_metric("subgraph.canonicalize", "subgraph.canonicalize_ms_p50", 0.5);
  pass_metric("subgraph.fragments", "subgraph.fragments_ms_p50", 0.5);
  pass_metric("subgraph.assembly", "subgraph.assembly_ms_p50", 0.5);
  pass_metric("core.partition", "core.partition_ms_p50", 0.5);
  pass_metric("core.streaming", "core.streaming_ms_p50", 0.5);
  pass_metric("core.buffers", "core.buffers_ms_p50", 0.5);
  pass_metric("metrics", "metrics.ms_p50", 0.5);
  pass_metric("baseline.list", "baseline.list_ms_p50", 0.5);
  pass_metric("sim", "sim.ms_p50", 0.5);
  pass_metric("sim", "sim.ms_p99", 0.99);
  if (ticks > 0) {
    report.metric("sim.live_tick_ratio",
                  static_cast<double>(live_ticks) / static_cast<double>(ticks), "ratio");
  } else {
    report.not_measured("sim.live_tick_ratio", "ratio", "no simulated misses");
  }
}

std::map<std::string, double> report_layer_shares(const std::map<std::string, double>& self,
                                                  const std::map<std::string, double>& extra,
                                                  double total, Report& report) {
  std::map<std::string, double> layers = extra;
  double unattributed = 0.0;
  for (const auto& [name, seconds] : self) {
    if (name == "client.request") {
      unattributed += seconds;
      continue;
    }
    layers[name.substr(0, name.find('.'))] += seconds;
  }
  const auto share = [total](double seconds) { return total > 0.0 ? seconds / total : 0.0; };
  std::printf("layer self-time shares of client latency (%.3f s):\n", total);
  for (const auto& [layer, seconds] : layers) {
    std::printf("  %-14s %6.1f%%\n", layer.c_str(), 100.0 * share(seconds));
  }
  std::printf("  %-14s %6.1f%%  (queue wait and hand-offs: no span covers them)\n",
              "unattributed", 100.0 * share(unattributed));
  for (const auto& [name, seconds] : self) {
    std::printf("    span %-24s self %6.1f%%\n", name.c_str(), 100.0 * share(seconds));
  }
  const auto partition = self.find("core.partition");
  if (partition != self.end()) {
    report.metric("core.partition_share", share(partition->second), "ratio");
  } else {
    report.not_measured("core.partition_share", "ratio", "partition pass not observable here");
  }
  report.metric("trace.unattributed_share", share(unattributed), "ratio");
  std::map<std::string, double> shares;
  for (const auto& [layer, seconds] : layers) shares[layer] = share(seconds);
  shares["unattributed"] = share(unattributed);
  return shares;
}

}  // namespace perfbench
