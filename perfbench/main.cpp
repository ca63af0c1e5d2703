// Serving benchmark: one closed-loop workload against the public
// serving API, with its outputs checked.
//
//   perfbench --workload paper_serve|delta_edit --seed N
//             --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics of one timed window; --trace 1
// alternates untraced and traced quarter windows and prints the per-layer
// metrics. The last stdout line is the JSON result. The exit code is 0 only
// when every output, counter invariant and percentile guard checked out.

#include <cmath>
#include <cstdio>
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

const std::vector<std::string> kEndToEnd = {
    "throughput_rps", "latency_p50_ms", "latency_tail_ms",
    "speedup_geomean", "setup_s", "peak_rss_mb",
};

const std::vector<std::string> kPerLayer = {
    "net.encode_us_p50", "net.decode_us_p50", "net.healthz_rtt_us_p50", "net.overhead_ms_p50",
    "net.http_errors",
    "service.submit_us_p50", "service.queue_wait_ms_p50", "service.queue_wait_ms_p99",
    "service.fast_path_ratio", "service.max_queue_depth",
    "cache.hit_ratio", "cache.evictions", "cache.races", "cache.probe_us_p50",
    "subgraph.partition_hit_ratio", "subgraph.canon_hit_ratio", "subgraph.canonicalize_ms_p50",
    "subgraph.fragments_ms_p50", "subgraph.assembly_ms_p50",
    "graph.apply_edits_ms_p50", "graph.key_ms_p50", "graph.validate_ms_p50",
    "core.partition_ms_p50", "core.streaming_ms_p50", "core.buffers_ms_p50",
    "core.partition_share",
    "metrics.ms_p50", "baseline.list_ms_p50",
    "sim.ms_p50", "sim.ms_p99", "sim.live_tick_ratio",
    "trace.overhead_ratio", "trace.unattributed_share",
};

struct Measured {
  Window window;
  sts::ServiceStats delta;
};

/// Counter identities over one window, and every response ok.
void check_window(const Window& window, const sts::ServiceStats& d, Report& report,
                  std::uint64_t& failed) {
  std::uint64_t bad = 0;
  for (const Observation& obs : window.observations) {
    if (obs.ok) continue;
    if (bad++ == 0) report.fail("request " + std::to_string(obs.index) + ": " + obs.error);
  }
  if (bad > 1) report.fail(std::to_string(bad) + " requests did not return ok");
  failed += bad;
  const auto count = static_cast<std::uint64_t>(window.observations.size());
  if (d.submitted != d.completed + d.rejected) {
    report.fail("invariant: submitted " + std::to_string(d.submitted) + " != completed " +
                std::to_string(d.completed) + " + rejected " + std::to_string(d.rejected));
  }
  if (d.submitted != count) {
    report.fail("invariant: backend counted " + std::to_string(d.submitted) +
                " submissions, the client made " + std::to_string(count));
  }
  const std::uint64_t lookups = d.completed - d.failed;
  if (d.cache.hits + d.cache.misses + d.cache.races != lookups) {
    report.fail("invariant: cache hits " + std::to_string(d.cache.hits) + " + misses " +
                std::to_string(d.cache.misses) + " + races " + std::to_string(d.cache.races) +
                " != lookups " + std::to_string(lookups));
  }
}

Measured measure(Workload& w, double seconds, bool traced, Report& report,
                 std::uint64_t& attempted, std::uint64_t& failed) {
  const sts::ServiceStats before = w.backend().stats_snapshot().stats;
  Window window = run_closed_loop(
      w.backend(), [&w](std::uint64_t i) { return w.make(i); }, w.next_index(), seconds, traced,
      [&w](std::uint64_t i) { return w.keep(i); });
  w.backend().wait_idle();
  const sts::ServiceStats delta = stats_delta(w.backend().stats_snapshot().stats, before);
  w.advance(window);
  w.classify(window);
  attempted += window.observations.size();
  check_window(window, delta, report, failed);
  return Measured{std::move(window), delta};
}

std::vector<double> latencies_ms(const Window& window) {
  std::vector<double> out;
  out.reserve(window.observations.size());
  for (const Observation& obs : window.observations) out.push_back(obs.latency_ms());
  return out;
}

/// Prints each request class's share and fails when a reported percentile
/// lies within five points of a boundary between classes (ordered by their
/// median latency): such a percentile jumps between classes on small shifts
/// of the mix.
void check_classes(const Window& window, const std::vector<std::string>& names,
                   const std::vector<double>& quantiles, Report& report) {
  std::vector<std::vector<double>> by_class(names.size());
  for (const Observation& obs : window.observations) {
    by_class.at(static_cast<std::size_t>(obs.cls)).push_back(obs.latency_ms());
  }
  const double total = static_cast<double>(window.observations.size());
  std::vector<std::pair<double, std::size_t>> order;
  std::printf("request classes:");
  for (std::size_t c = 0; c < names.size(); ++c) {
    const double share = 100.0 * static_cast<double>(by_class[c].size()) / total;
    std::printf(" %s %.1f%% (median %.3f ms)", names[c].c_str(), share, median(by_class[c]));
    if (!by_class[c].empty()) order.emplace_back(median(by_class[c]), c);
  }
  std::printf("\n");
  std::sort(order.begin(), order.end());
  double cumulative = 0.0;
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    cumulative += 100.0 * static_cast<double>(by_class[order[k].second].size()) / total;
    std::printf("class boundary %s|%s at %.1f%%\n", names[order[k].second].c_str(),
                names[order[k + 1].second].c_str(), cumulative);
    for (const double q : quantiles) {
      if (std::abs(100.0 * q - cumulative) < 5.0) {
        char why[160];
        std::snprintf(why, sizeof why, "class guard: p%g lies %.1f points from the %s|%s boundary",
                      100.0 * q, std::abs(100.0 * q - cumulative),
                      names[order[k].second].c_str(), names[order[k + 1].second].c_str());
        report.fail(why);
      }
    }
  }
}

int usage() {
  std::cerr << "usage: perfbench --workload paper_serve|delta_edit --seed N "
               "--seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload_name;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") workload_name = value;
    else if (key == "--seed") options.seed = std::stoull(value);
    else if (key == "--seconds") options.seconds = std::stod(value);
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--serve-bin") options.serve_binary = value;
    else if (key == "--out-dir") options.out_dir = value;
    else return usage();
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) return usage();

  try {
    std::unique_ptr<Workload> w;
    if (workload_name == "paper_serve") w = make_paper_serve(options);
    else if (workload_name == "delta_edit") w = make_delta_edit(options);
    else return usage();

    Report report;
    std::vector<double> setups;
    for (int k = 0; k < w->setup_repeats(); ++k) {
      w->teardown();
      const Clock::time_point start = Clock::now();
      w->setup();
      setups.push_back(seconds_since(start));
    }
    std::printf("set-up seconds:");
    for (const double s : setups) std::printf(" %.4f", s);
    std::printf("\n");
    w->warm_up();

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Digest digest;
    std::printf("%s seed %llu, %s, window %.1f s\n", workload_name.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? "traced" : "untraced", options.seconds);
    if (!options.trace) {
      const Measured m = measure(*w, options.seconds, false, report, attempted, failed);
      const std::vector<double> lat = latencies_ms(m.window);
      check_classes(m.window, w->class_names(), {0.5, w->tail_quantile()}, report);
      w->verify(m.window, report, digest);
      std::printf("end-to-end:\n");
      report.metric("throughput_rps", m.window.throughput(), "1/s");
      report.percentile_metric("latency_p50_ms", percentile(lat, 0.5), "ms", true);
      const Percentile tail = percentile(lat, w->tail_quantile());
      std::printf("  latency_tail_ms is p%g here\n", 100.0 * w->tail_quantile());
      report.percentile_metric("latency_tail_ms", tail, "ms", true);
      report.metric("speedup_geomean", w->speedup_geomean(report), "x");
      report.metric("setup_s", median(setups), "s");
      report.metric("peak_rss_mb", w->peak_rss(), "MiB");
    } else {
      // Untraced and traced quarter windows alternate, so that slow drifts
      // (caches filling, host speed) fall on both sides of the overhead ratio.
      Window plain;
      Measured traced;
      for (int quarter = 0; quarter < 4; ++quarter) {
        const bool tracing = quarter % 2 == 1;
        Measured m = measure(*w, options.seconds / 4, tracing, report, attempted, failed);
        if (quarter == 0) w->verify(m.window, report, digest);
        if (tracing) sts::accumulate_service_stats(traced.delta, m.delta);
        Window& into = tracing ? traced.window : plain;
        into.elapsed += m.window.elapsed;
        for (Observation& obs : m.window.observations) into.observations.push_back(std::move(obs));
      }
      std::printf("per-layer:\n");
      Tracer tracer;
      w->layers(traced.window, traced.delta, tracer, report);
      report.metric("trace.overhead_ratio", traced.window.throughput() / plain.throughput(),
                    "ratio");
      if (!options.out_dir.empty()) {
        const std::string path = options.out_dir + "/" + workload_name + "-seed" +
                                 std::to_string(options.seed) + ".trace.json";
        tracer.write(path);
        std::printf("spans written to %s\n", path.c_str());
      }
    }
    w->finish(report);
    std::printf("error_rate %.6f (%llu failed, rejected or lost of %llu attempted)\n",
                attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::printf("result_digest %016llx\n", static_cast<unsigned long long>(digest.state));
    const std::vector<std::string>& names = options.trace ? kPerLayer : kEndToEnd;
    for (const std::string& name : names) {
      if (!report.has(name)) report.fail("metric " + name + " was not measured");
    }
    report.print_result(attempted, failed, names);
    return report.correct() && attempted > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
