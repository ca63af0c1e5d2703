// Scheduling at 10^5..10^6-node scale, one request on one thread. Three
// phases:
//
//   alloc    — arena heap-block audit of one 10^5-node request: scheduling
//              must cost at most STS_HUGE_MAX_ARENA_BLOCKS (default 64)
//              arena blocks, i.e. O(log n) heap traffic instead of per-node
//              allocations. Hard gate on every host.
//   latency  — streaming-rlx schedule latency on the 10^5-node graph over
//              kLatencyRepeats runs, reported as median, min, max and
//              relative spread ((max - min) / median). The median gates at
//              kLatencyMedianMaxSeconds: the heap-based partitioner makes
//              the request O((n + E) log n), while a linear ready-set scan
//              per pick takes 3.9-5.1 s here, so the bound catches a
//              return to per-pick rescans.
//   mega     — one 10^6-node schedule, reported only; skipped in smoke mode
//              (STS_BENCH_GRAPHS set) where it would dominate the job's wall
//              time.
//
// Graphs come from make_fanin_layered (each node samples a constant number
// of predecessors), so building a 10^6-node topology is O(nodes). Writes
// BENCH_huge_graph.json; exits non-zero on any gate failure.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pipeline/registry.hpp"
#include "support/arena.hpp"
#include "support/stats.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace sts;
using bench::BenchReport;
using bench::Stopwatch;

constexpr int kLatencyRepeats = 5;
constexpr double kLatencyMedianMaxSeconds = 1.5;

std::int64_t env_int(const char* name, std::int64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const std::int64_t v = std::atoll(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// Wall time of one streaming-rlx request; exits on a non-positive makespan.
double schedule_seconds(const TaskGraph& graph, std::int64_t pes) {
  MachineConfig machine;
  machine.num_pes = pes;
  const Stopwatch watch;
  const ScheduleResult result = schedule_by_name("streaming-rlx", graph, machine);
  const double seconds = watch.seconds();
  if (result.makespan <= 0) {
    std::fprintf(stderr, "huge_graph: non-positive makespan\n");
    std::exit(1);
  }
  return seconds;
}

// Process-wide arena heap accounting for the alloc phase.
std::atomic<std::int64_t> g_arena_blocks{0};
std::atomic<std::int64_t> g_arena_bytes{0};
void count_arena_block(std::size_t bytes) noexcept {
  g_arena_blocks.fetch_add(1, std::memory_order_relaxed);
  g_arena_bytes.fetch_add(static_cast<std::int64_t>(bytes), std::memory_order_relaxed);
}

}  // namespace

int main() {
  const bool smoke = std::getenv("STS_BENCH_GRAPHS") != nullptr;
  BenchReport report("huge_graph");
  report.add("smoke", std::string(smoke ? "yes" : "no"));
  bool failed = false;

  // ------------------------------------------------- build the 10^5 workload
  const Stopwatch gen_watch;
  const TaskGraph huge = make_fanin_layered(50, 2000, 4, 23);
  report.add("huge_nodes", static_cast<std::int64_t>(huge.node_count()));
  report.add("huge_edges", static_cast<std::int64_t>(huge.edge_count()));
  report.add("huge_gen_seconds", gen_watch.seconds());

  // ---------------------------------------------------------- phase 1: alloc
  {
    Arena::set_heap_hook(&count_arena_block);
    g_arena_blocks.store(0);
    g_arena_bytes.store(0);
    MachineConfig machine;
    machine.num_pes = 64;
    const ScheduleResult result = schedule_by_name("streaming-rlx", huge, machine);
    Arena::set_heap_hook(nullptr);
    const std::int64_t blocks = g_arena_blocks.load();
    const std::int64_t max_blocks = env_int("STS_HUGE_MAX_ARENA_BLOCKS", 64);
    report.add("alloc_makespan", result.makespan);
    report.add("alloc_arena_blocks", blocks);
    report.add("alloc_arena_bytes", g_arena_bytes.load());
    report.add("alloc_arena_blocks_max", max_blocks);
    if (blocks > max_blocks) {
      std::fprintf(stderr,
                   "huge_graph: %lld arena blocks for one request exceeds the %lld bound "
                   "(per-node allocations crept back into a hot path?)\n",
                   static_cast<long long>(blocks), static_cast<long long>(max_blocks));
      failed = true;
    }
  }

  // -------------------------------------------------------- phase 2: latency
  {
    std::vector<double> samples;
    for (int r = 0; r < kLatencyRepeats; ++r) samples.push_back(schedule_seconds(huge, 64));
    const double median = median_of(samples);
    const double lo = *std::min_element(samples.begin(), samples.end());
    const double hi = *std::max_element(samples.begin(), samples.end());
    const double spread = median > 0.0 ? (hi - lo) / median : 0.0;
    report.add("latency_repeats", kLatencyRepeats);
    report.add("latency_seconds_median", median);
    report.add("latency_seconds_min", lo);
    report.add("latency_seconds_max", hi);
    report.add("latency_relative_spread", spread);
    report.add("latency_seconds_median_max", kLatencyMedianMaxSeconds);
    std::printf("huge_graph: %lld nodes, streaming-rlx median %.3fs (min %.3fs, max %.3fs, "
                "spread %.1f%%) over %d runs\n",
                static_cast<long long>(huge.node_count()), median, lo, hi, 100.0 * spread,
                kLatencyRepeats);
    if (median > kLatencyMedianMaxSeconds) {
      std::fprintf(stderr, "huge_graph: median latency %.3fs exceeds the %.2fs gate\n", median,
                   kLatencyMedianMaxSeconds);
      failed = true;
    }
  }

  // ----------------------------------------------------------- phase 3: mega
  if (!smoke) {
    const Stopwatch mega_gen;
    const TaskGraph mega = make_fanin_layered(100, 10'000, 3, 29);
    report.add("mega_nodes", static_cast<std::int64_t>(mega.node_count()));
    report.add("mega_edges", static_cast<std::int64_t>(mega.edge_count()));
    report.add("mega_gen_seconds", mega_gen.seconds());
    report.add("mega_seconds", schedule_seconds(mega, 256));
  }

  report.add("status", std::string(failed ? "fail" : "ok"));
  report.write();
  return failed ? 1 : 0;
}
