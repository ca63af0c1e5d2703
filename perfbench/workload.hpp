// The benchmark's workload interface and the per-layer reporting the
// workloads share.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "service/backend.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string serve_binary;  ///< sts_serve executable (paper_serve)
  std::string out_dir;       ///< where traces and server logs go
};

/// Counter movement of one backend across a window.
[[nodiscard]] sts::ServiceStats stats_delta(const sts::ServiceStats& after,
                                            const sts::ServiceStats& before);

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Builds the inputs and stands up the system under test. Timed as
  /// set-up; called `setup_repeats()` times, each after an untimed teardown().
  virtual void setup() = 0;
  virtual void teardown() = 0;
  [[nodiscard]] virtual int setup_repeats() const { return 3; }
  /// Untimed: fills caches before the first window.
  virtual void warm_up() = 0;

  [[nodiscard]] virtual sts::ScheduleBackend& backend() = 0;
  /// The request at stream position `index`.
  [[nodiscard]] virtual StreamItem make(std::uint64_t index) = 0;
  /// First stream position of the next window.
  [[nodiscard]] virtual std::uint64_t next_index() const = 0;
  virtual void advance(const Window& window) = 0;
  /// Whether the response at `index` is kept for verification.
  [[nodiscard]] virtual bool keep(std::uint64_t index) const = 0;

  [[nodiscard]] virtual std::vector<std::string> class_names() const = 0;
  /// Assigns classes the client cannot observe itself (remote hits).
  virtual void classify(Window& window) { (void)window; }
  /// Quantile reported as latency_tail_ms.
  [[nodiscard]] virtual double tail_quantile() const = 0;

  /// Re-checks kept responses against a direct schedule of the same request
  /// and folds them into `digest`; also checks workload-specific output
  /// properties.
  virtual void verify(const Window& window, Report& report, Digest& digest) = 0;
  [[nodiscard]] virtual double speedup_geomean(Report& report) const = 0;
  [[nodiscard]] virtual double peak_rss() const = 0;

  /// Per-layer metrics of a traced window. `delta` is the backend's counter
  /// movement over it. Fills `tracer` with the window's spans.
  virtual void layers(const Window& traced, const sts::ServiceStats& delta, Tracer& tracer,
                      Report& report) = 0;

  /// Tears the system down and checks what only teardown reveals.
  virtual void finish(Report& report) { (void)report; }
};

[[nodiscard]] std::unique_ptr<Workload> make_paper_serve(const RunOptions& options);
[[nodiscard]] std::unique_ptr<Workload> make_delta_edit(const RunOptions& options);

/// Extra spans inside service.submit for one request: (name, microseconds).
using SubmitChildren = std::vector<std::pair<std::string, double>>;

/// Builds the spans of an in-process window: the client request, the
/// service.submit call (with `children` laid out inside it), and the pass
/// timings of every miss. Request ids are offset by `id_base`.
void trace_in_process(const Window& window,
                      const std::function<SubmitChildren(const Observation&)>& children,
                      std::uint64_t id_base, Tracer& tracer);

/// Reports the service, result-cache, subgraph and pass-timing layers.
/// `inproc` is an in-process traced window (pass timings, queue wait,
/// submit time); `delta` the counter movement of the serving backend.
void report_pipeline_layers(const Window& inproc, const sts::ServiceStats& delta,
                            bool subgraph_on, Report& report);

/// Layer self-time shares of client latency from a tracer's self times,
/// with `extra` seconds attributed to named layers first (paper_serve's net
/// difference) and `total` the client latency they are shares of. Reports
/// trace.unattributed_share and core.partition_share and prints the table.
std::map<std::string, double> report_layer_shares(const std::map<std::string, double>& self,
                                                  const std::map<std::string, double>& extra,
                                                  double total, Report& report);

[[nodiscard]] double latency_sum_seconds(const Window& window);

/// Reports the net layer as not measured, for in-process workloads.
void report_no_network(Report& report);

}  // namespace perfbench
