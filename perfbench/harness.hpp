// Shared machinery of the serving benchmark: clocks, guarded percentiles,
// the closed-loop client, in-memory spans, and the result report.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/backend.hpp"
#include "service/request.hpp"
#include "support/prng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times one call in microseconds.
template <typename F>
[[nodiscard]] double time_us(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return seconds_since(start) * 1e6;
}

[[nodiscard]] double median(std::vector<double> values);
/// Geometric mean; 0 for an empty list.
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& items, sts::Prng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
  }
}

/// Nearest-rank percentile with the sample count beyond it. A percentile is
/// only reported when at least ten samples lie beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  [[nodiscard]] bool supported() const { return beyond >= 10; }
};
[[nodiscard]] Percentile percentile(std::vector<double> values, double q);

/// 64-bit FNV-1a accumulator for result digests.
struct Digest {
  std::uint64_t state = 1469598103934665603ULL;
  void add(std::uint64_t value);
  void add(const std::string& text);
};

/// One request as the client saw it. Times are seconds since the window
/// started; `result` is kept only for requests in the verification sample.
struct Observation {
  std::uint64_t index = 0;  ///< stream position
  int cls = 0;              ///< workload-defined request class
  double submit = 0.0;      ///< before submit()
  double submitted = 0.0;   ///< after submit() returned
  double settled = 0.0;     ///< when the response was in hand
  bool ok = false;
  bool fast = false;        ///< settled by the time submit() returned
  double speedup = 0.0;
  std::string error;
  std::shared_ptr<const sts::ScheduleResult> result;
  std::vector<sts::PassTiming> timings;  ///< traced windows only
  std::int64_t live_ticks = 0;           ///< traced windows, simulated results
  std::int64_t ticks_executed = 0;

  [[nodiscard]] double latency_ms() const { return (settled - submit) * 1e3; }
};

/// A request the stream generator produced for one position.
struct StreamItem {
  sts::ScheduleRequest request;
  int cls = 0;
};

struct Window {
  std::vector<Observation> observations;  ///< sorted by stream index
  double elapsed = 0.0;                   ///< start to last settle, seconds
  [[nodiscard]] double throughput() const {
    return elapsed > 0.0 ? static_cast<double>(observations.size()) / elapsed : 0.0;
  }
};

/// Closed-loop client: an in-flight window of two requests, kept by two
/// lanes that each submit their next request as soon as the previous one
/// settles (so every settle time is observed when it happens). Positions
/// are handed out in order from `first_index`; no request is submitted
/// after `seconds` have elapsed. `keep(index)` selects the responses whose
/// results are retained for verification. An exception on a lane is
/// rethrown once both lanes have stopped.
Window run_closed_loop(sts::ScheduleBackend& backend,
                       const std::function<StreamItem(std::uint64_t)>& make,
                       std::uint64_t first_index, double seconds, bool traced,
                       const std::function<bool(std::uint64_t)>& keep);

/// Same client over a fixed list of stream positions (replays and
/// warm-ups); runs until every position has settled.
Window run_positions(sts::ScheduleBackend& backend,
                     const std::function<StreamItem(std::uint64_t)>& make,
                     const std::vector<std::uint64_t>& positions, bool traced,
                     const std::function<bool(std::uint64_t)>& keep);

/// One traced interval, recorded by the benchmark around its own calls or
/// taken from the pass timings a result reports. Spans of one request share
/// `request`; `parent` indexes the enclosing span (-1 for the root).
struct Span {
  std::uint64_t request = 0;
  int parent = -1;
  std::string name;
  double start = 0.0;  ///< seconds
  double end = 0.0;
};

class Tracer {
 public:
  int add(std::uint64_t request, int parent, std::string name, double start, double end);
  /// Appends another tracer's spans, keeping their parent links.
  void append(const Tracer& other);
  /// Per span name: total duration minus the time its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Writes the spans as Chrome trace-event JSON.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Lays out the pass timings a miss reported as consecutive child spans of
/// `root` that end when the response settled. Pass names map to layer span
/// names (partition -> core.partition, simulation -> sim, ...).
void add_pass_spans(Tracer& tracer, int root, const Observation& obs);

[[nodiscard]] std::string pass_span_name(const std::string& pass);

/// Metrics, failures and human-readable lines of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric this workload does not measure: reported as -1.
  void not_measured(const std::string& name, const std::string& unit,
                    const std::string& reason);
  /// A guarded percentile; refused (-1 in the per-layer output, a failure
  /// for an end-to-end metric) when fewer than ten samples lie beyond it.
  void percentile_metric(const std::string& name, const Percentile& p,
                         const std::string& unit, bool required);
  void fail(const std::string& why);

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  /// Prints the last stdout line: the JSON result object.
  void print_result(std::uint64_t attempted, std::uint64_t failed,
                    const std::vector<std::string>& names) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> failures_;
};

/// Peak resident set (VmHWM) of `pid` ("self" for this process), in MiB.
[[nodiscard]] double peak_rss_mb(const std::string& pid = "self");

}  // namespace perfbench
