// paper_serve: the paper's Section 7.1 topologies sent over loopback HTTP
// to one sts-serve child through RemoteBackend. A skewed draw over a
// scenario set about three times the server's result-cache capacity makes
// hits, misses and evictions all occur; simulated requests form the tail.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <list>
#include <sstream>
#include <unordered_map>

#include "net/http.hpp"
#include "net/remote_backend.hpp"
#include "net/server_process.hpp"
#include "net/socket.hpp"
#include "pipeline/registry.hpp"
#include "service/schedule_service.hpp"
#include "sim/dataflow_sim.hpp"
#include "support/prng.hpp"
#include "workload.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {
namespace {

constexpr int kTopologies = 4;  // chain-8, FFT-32, Gaussian-16, Cholesky-8
constexpr int kVariants = 4;    // volume seeds per topology
constexpr std::int64_t kChainPes[] = {2, 4, 6, 8};
constexpr std::int64_t kWidePes[] = {32, 64, 96, 128};
const char* const kSchedulers[] = {"streaming-lts", "streaming-rlx", "streaming-work", "list"};
constexpr int kBaseScenarios = kTopologies * kVariants * 4 * 4;  // x PEs x schedulers
constexpr double kZipf = 0.9;
constexpr double kSimShare = 1.0 / 3.0;  // of streaming draws: ~1/4 of all
constexpr std::uint64_t kWarmDraws = 3000;
constexpr std::uint64_t kRecheckRange = 1000;  ///< first positions of the window
constexpr std::size_t kRechecks = 64;
constexpr std::size_t kTraced = 2000;  ///< traced requests given function times

enum Class { kHit = 0, kMiss = 1, kSimulated = 2 };

struct Scenario {
  int graph = 0;  ///< index into graphs_
  std::int64_t pes = 0;
  int scheduler = 0;
  bool sim = false;
  std::size_t weight = 0;  ///< result-cache weight: node count
  int id = 0;              ///< dense id over the whole scenario set
};

/// The server's result cache as seen from the client: a weight-bounded LRU
/// over scenario ids, replayed in stream order to tell hits from misses.
class LruModel {
 public:
  explicit LruModel(std::size_t capacity) : capacity_(capacity) {}
  bool access(int id, std::size_t weight) {
    if (const auto it = where_.find(id); it != where_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    order_.emplace_front(id, weight);
    where_[id] = order_.begin();
    weight_ += weight;
    while (weight_ > capacity_) {
      weight_ -= order_.back().second;
      where_.erase(order_.back().first);
      order_.pop_back();
    }
    return false;
  }

 private:
  std::size_t capacity_;
  std::size_t weight_ = 0;
  std::list<std::pair<int, std::size_t>> order_;
  std::unordered_map<int, std::list<std::pair<int, std::size_t>>::iterator> where_;
};

/// Runs `fn` with this process's stderr redirected to `path`, so that a
/// child spawned inside inherits the file.
template <typename F>
void with_stderr_to(const std::string& path, F&& fn) {
  std::fflush(stderr);
  const int saved = ::dup(2);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (saved < 0 || fd < 0) throw std::runtime_error("paper_serve: cannot open " + path);
  ::dup2(fd, 2);
  ::close(fd);
  try {
    fn();
  } catch (...) {
    ::dup2(saved, 2);
    ::close(saved);
    throw;
  }
  ::dup2(saved, 2);
  ::close(saved);
}

std::uint64_t json_counter(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\": ");
  if (at == std::string::npos) throw std::runtime_error("paper_serve: no " + key + " in log");
  return std::stoull(text.substr(at + key.size() + 4));
}

class PaperServe final : public Workload {
 public:
  explicit PaperServe(const RunOptions& options) : options_(options) {}

  ~PaperServe() override { stop_server(); }

  void teardown() override { stop_server(); }

  void setup() override {
    build_scenarios();
    log_path_ = options_.out_dir + "/paper_serve-server.log";
    const std::vector<std::string> args = {"--threads", "2", "--cache-capacity",
                                           std::to_string(capacity_)};
    with_stderr_to(log_path_, [&] {
      server_ = std::make_unique<sts::ServerProcess>(options_.serve_binary, args);
    });
    sts::RemoteConfig config;
    config.port = server_->port();
    remote_ = std::make_unique<sts::RemoteBackend>(config);
  }
  [[nodiscard]] int setup_repeats() const override { return 5; }

  void warm_up() override {
    model_ = std::make_unique<LruModel>(capacity_);
    const Window warm = run_positions(
        *remote_, [this](std::uint64_t i) { return make(i); }, warm_positions(), false,
        [](std::uint64_t) { return false; });
    universe_speedups_.clear();
    for (const Observation& obs : warm.observations) {
      if (!obs.ok) throw std::runtime_error("paper_serve warm-up: " + obs.error);
      if (obs.index < universe_.size()) universe_speedups_.push_back(obs.speedup);
      const Scenario& s = scenario(obs.index);
      model_->access(s.id, s.weight);
    }
    next_ = universe_.size() + kWarmDraws;
  }

  sts::ScheduleBackend& backend() override { return *remote_; }

  StreamItem make(std::uint64_t index) override {
    const Scenario& s = scenario(index);
    StreamItem item;
    sts::ScheduleRequest& request = item.request;
    request.graph = graphs_[static_cast<std::size_t>(s.graph)];
    request.scheduler = kSchedulers[s.scheduler];
    request.machine.num_pes = s.pes;
    if (s.sim) {
      sts::SimOptions sim;
      sim.engine = sts::SimEngine::kBulkAdvance;
      request.sim = sim;
    }
    return item;
  }
  [[nodiscard]] std::uint64_t next_index() const override { return next_; }
  void advance(const Window& window) override {
    if (!window.observations.empty()) next_ = window.observations.back().index + 1;
  }
  /// Wire results are summaries of a few fields: keep them all.
  [[nodiscard]] bool keep(std::uint64_t) const override { return true; }

  [[nodiscard]] std::vector<std::string> class_names() const override {
    return {"hit", "miss", "simulated"};
  }
  [[nodiscard]] double tail_quantile() const override { return 0.99; }

  void classify(Window& window) override {
    std::uint64_t hits = 0;
    for (Observation& obs : window.observations) {
      const Scenario& s = scenario(obs.index);
      const bool hit = model_->access(s.id, s.weight);
      hits += hit ? 1 : 0;
      obs.cls = hit ? kHit : s.sim ? kSimulated : kMiss;
    }
    std::printf("client-side cache model: %llu of %zu requests hit\n",
                static_cast<unsigned long long>(hits), window.observations.size());
  }

  void verify(const Window& window, Report& report, Digest& digest) override {
    const std::uint64_t first = window.observations.empty() ? 0 : window.observations[0].index;
    std::size_t simulated = 0;
    for (const Observation& obs : window.observations) {
      if (!obs.ok || !scenario(obs.index).sim) continue;
      ++simulated;
      if (!obs.result->sim || obs.result->sim->deadlocked) {
        report.fail("paper_serve: simulated request " + std::to_string(obs.index) +
                    " came back without a deadlock-free simulation");
      }
    }
    // A seeded sample of the window's first positions, re-scheduled directly
    // and compared by wire summary.
    sts::Prng rng(options_.seed ^ 0x7061706572736572ULL);
    std::size_t checked = 0;
    for (std::size_t k = 0; k < kRechecks; ++k) {
      const std::uint64_t index = first + static_cast<std::uint64_t>(rng.uniform_int(
                                              0, static_cast<std::int64_t>(kRecheckRange) - 1));
      const auto it = std::lower_bound(
          window.observations.begin(), window.observations.end(), index,
          [](const Observation& obs, std::uint64_t i) { return obs.index < i; });
      if (it == window.observations.end() || it->index != index || !it->ok) {
        report.fail("paper_serve: position " + std::to_string(index) + " did not complete");
        continue;
      }
      const std::string served = summary(it->result);
      if (served != summary(reference(index))) {
        report.fail("paper_serve: position " + std::to_string(index) + " served " + served +
                    ", a direct schedule gives " + summary(reference(index)));
      }
      digest.add(index);
      digest.add(served);
      ++checked;
    }
    std::printf("re-checked %zu paper_serve responses against direct schedules; %zu simulated "
                "responses deadlock-free\n",
                checked, simulated);
  }

  [[nodiscard]] double speedup_geomean(Report& report) const override {
    if (universe_speedups_.size() != universe_.size()) {
      report.fail("paper_serve: the scenario-set pass is incomplete");
    }
    return geomean(universe_speedups_);
  }

  [[nodiscard]] double peak_rss() const override {
    return peak_rss_mb(std::to_string(server_->pid()));
  }

  void layers(const Window& traced, const sts::ServiceStats& delta, Tracer& tracer,
              Report& report) override {
    // Client-side function times on the same inputs, for the first traced
    // requests: envelope encode and reply decode.
    std::map<std::uint64_t, std::pair<double, double>> codec_us;
    std::vector<double> encode_us, decode_us;
    for (const Observation& obs : traced.observations) {
      if (codec_us.size() >= kTraced) break;
      const StreamItem item = make(obs.index);
      std::string body;
      const double encode = time_us([&] { body = item.request.to_json(); });
      const std::string reply = summary(obs.result);
      const double decode = time_us([&] { (void)sts::ScheduleResponse::from_json(reply); });
      codec_us[obs.index] = {encode, decode};
      encode_us.push_back(encode);
      decode_us.push_back(decode);
    }
    report.percentile_metric("net.encode_us_p50", percentile(encode_us, 0.5), "us", false);
    report.percentile_metric("net.decode_us_p50", percentile(decode_us, 0.5), "us", false);
    report.percentile_metric("net.healthz_rtt_us_p50", percentile(healthz_rtts_us(1000), 0.5),
                             "us", false);

    // The same stream served in-process: pass timings and queue wait, which
    // the wire summary does not carry.
    std::vector<std::uint64_t> positions;
    for (const Observation& obs : traced.observations) positions.push_back(obs.index);
    sts::ServiceConfig config;
    config.num_workers = 2;
    config.cache_capacity = capacity_;
    config.subgraph_cache_capacity = 0;  // as sts-serve without --incremental
    sts::ScheduleService replay_service(config);
    const auto make_fn = [this](std::uint64_t i) { return make(i); };
    const auto keep_none = [](std::uint64_t) { return false; };
    (void)run_positions(replay_service, make_fn, warm_positions(), false, keep_none);
    const Window replay = run_positions(replay_service, make_fn, positions, true, keep_none);
    for (const Observation& obs : replay.observations) {
      if (!obs.ok) report.fail("paper_serve replay: " + obs.error);
    }

    std::vector<double> remote_ms, local_ms;
    for (const Observation& obs : traced.observations) remote_ms.push_back(obs.latency_ms());
    for (const Observation& obs : replay.observations) local_ms.push_back(obs.latency_ms());
    report.metric("net.overhead_ms_p50", median(remote_ms) - median(local_ms), "ms");

    std::map<std::uint64_t, double> key_us;
    std::vector<double> key_ms, validate_ms, probe_us;
    for (const Observation& obs : replay.observations) {
      const StreamItem item = make(obs.index);
      const double key = time_us([&] { (void)item.request.key(); });
      key_us[obs.index] = key;
      key_ms.push_back(key * 1e-3);
      validate_ms.push_back(time_us([&] { (void)item.request.graph.validate(); }) * 1e-3);
      probe_us.push_back(
          time_us([&] { (void)replay_service.cache().try_get(item.request.key()); }));
    }
    report.not_measured("graph.apply_edits_ms_p50", "ms", "no delta requests");
    report.percentile_metric("graph.key_ms_p50", percentile(key_ms, 0.5), "ms", false);
    report.percentile_metric("graph.validate_ms_p50", percentile(validate_ms, 0.5), "ms", false);
    report.percentile_metric("cache.probe_us_p50", percentile(probe_us, 0.5), "us", false);
    // Counters from the real server; times from the in-process replay.
    report_pipeline_layers(replay, delta, false, report);

    // Remote spans: the client request, the submit call (envelope encode
    // inside it) and the reply decode at its end.
    for (const Observation& obs : traced.observations) {
      const int root = tracer.add(obs.index, -1, "client.request", obs.submit, obs.settled);
      const int submit = tracer.add(obs.index, root, "net.submit", obs.submit, obs.submitted);
      if (const auto it = codec_us.find(obs.index); it != codec_us.end()) {
        tracer.add(obs.index, submit, "net.encode", obs.submit,
                   std::min(obs.submitted, obs.submit + it->second.first * 1e-6));
        tracer.add(obs.index, root, "net.decode", obs.settled - it->second.second * 1e-6,
                   obs.settled);
      }
    }
    // Replay spans under separate request ids; the layer shares combine them
    // with the remote minus in-process latency, attributed to the network.
    Tracer replay_tracer;
    trace_in_process(
        replay,
        [&key_us](const Observation& obs) {
          return SubmitChildren{{"graph.key", key_us.at(obs.index)}};
        },
        std::uint64_t{1} << 40, replay_tracer);
    tracer.append(replay_tracer);
    const double remote_total = latency_sum_seconds(traced);
    const double local_total = latency_sum_seconds(replay);
    const std::map<std::string, double> shares = report_layer_shares(
        replay_tracer.self_seconds(), {{"net", std::max(0.0, remote_total - local_total)}},
        remote_total, report);
    const auto share = [&shares](const char* layer) {
      const auto it = shares.find(layer);
      return it == shares.end() ? 0.0 : it->second;
    };
    const double carried =
        share("net") + share("service") + share("sim") + share("unattributed");
    std::printf("design check: net + service (incl. queue wait) + sim carry %.1f%%: %s\n",
                100.0 * carried, carried > 0.5 ? "yes" : "NO");
  }

  void finish(Report& report) override {
    if (!server_) return;
    remote_.reset();
    const int code = server_->terminate();
    server_.reset();
    if (code != 0) report.fail("paper_serve: sts-serve exited with code " + std::to_string(code));
    std::ifstream log(log_path_);
    std::stringstream text;
    text << log.rdbuf();
    const std::string content = text.str();
    const std::size_t at = content.find("transport {");
    if (at == std::string::npos) {
      report.fail("paper_serve: sts-serve logged no transport counters at drain");
      return;
    }
    const std::string transport = content.substr(at);
    const std::uint64_t requests = json_counter(transport, "requests");
    const std::uint64_t responses = json_counter(transport, "responses");
    if (requests != responses) {
      report.fail("invariant: transport requests " + std::to_string(requests) +
                  " != responses " + std::to_string(responses));
    }
    report.metric("net.http_errors", static_cast<double>(json_counter(transport, "http_errors")),
                  "count");
  }

 private:
  void stop_server() {
    remote_.reset();
    if (server_) (void)server_->terminate();
    server_.reset();
  }

  /// Graphs (fixed volume seeds, so the scenario set is the same for every
  /// workload seed) and the popularity order of the base scenarios: ranks
  /// cycle through the topologies, and the seed orders each topology's
  /// (variant, PE count, scheduler) combinations.
  void build_scenarios() {
    graphs_.clear();
    for (int v = 0; v < kVariants; ++v) {
      const auto seed = static_cast<std::uint64_t>(v + 1);
      graphs_.push_back(sts::make_chain(8, seed));
      graphs_.push_back(sts::make_fft(32, seed));
      graphs_.push_back(sts::make_gaussian_elimination(16, seed));
      graphs_.push_back(sts::make_cholesky(8, seed));
    }
    std::vector<std::vector<Scenario>> per_topology(kTopologies);
    universe_.clear();
    for (int t = 0; t < kTopologies; ++t) {
      for (int v = 0; v < kVariants; ++v) {
        for (int p = 0; p < 4; ++p) {
          for (int sched = 0; sched < 4; ++sched) {
            Scenario s;
            s.graph = v * kTopologies + t;
            s.pes = t == 0 ? kChainPes[p] : kWidePes[p];
            s.scheduler = sched;
            s.weight = graphs_[static_cast<std::size_t>(s.graph)].node_count();
            per_topology[static_cast<std::size_t>(t)].push_back(s);
          }
        }
      }
    }
    sts::Prng rng(options_.seed * 0x9e3779b97f4a7c15ULL + 17);
    for (auto& list : per_topology) shuffle(list, rng);
    ranked_.clear();
    for (std::size_t r = 0; r < static_cast<std::size_t>(kBaseScenarios); ++r) {
      ranked_.push_back(per_topology[r % kTopologies][r / kTopologies]);
      ranked_.back().id = static_cast<int>(2 * r);
    }
    // The whole scenario set, each base scenario plain and (streaming
    // schedulers only) simulated, visited once in seeded order.
    std::size_t total_weight = 0;
    for (const Scenario& s : ranked_) {
      universe_.push_back(s);
      total_weight += s.weight;
      if (std::string(kSchedulers[s.scheduler]) != "list") {
        Scenario sim = s;
        sim.sim = true;
        sim.id = s.id + 1;
        universe_.push_back(sim);
        total_weight += s.weight;
      }
    }
    shuffle(universe_, rng);
    capacity_ = total_weight / 3;
    cdf_.clear();
    double sum = 0.0;
    for (int r = 0; r < kBaseScenarios; ++r) {
      sum += std::pow(static_cast<double>(r + 1), -kZipf);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  /// Positions [0, |set|) visit the scenario set once; later positions are
  /// independent skewed draws.
  [[nodiscard]] Scenario scenario(std::uint64_t index) const {
    if (index < universe_.size()) return universe_[index];
    sts::Prng rng(options_.seed * 0xd1342543de82ef95ULL + index);
    const double u = rng.uniform();
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    Scenario draw = ranked_[std::min(rank, ranked_.size() - 1)];
    if (std::string(kSchedulers[draw.scheduler]) != "list" && rng.uniform() < kSimShare) {
      draw.sim = true;
      draw.id += 1;
    }
    return draw;
  }

  [[nodiscard]] std::vector<std::uint64_t> warm_positions() const {
    std::vector<std::uint64_t> positions(universe_.size() + kWarmDraws);
    for (std::size_t i = 0; i < positions.size(); ++i) positions[i] = i;
    return positions;
  }

  /// The wire summary of a result, as the server renders it.
  [[nodiscard]] static std::string summary(std::shared_ptr<const sts::ScheduleResult> result) {
    sts::ScheduleResponse response;
    response.status = sts::ScheduleResponse::Status::kOk;
    response.result = std::move(result);
    return response.to_json();
  }

  [[nodiscard]] std::shared_ptr<const sts::ScheduleResult> reference(std::uint64_t index) {
    const StreamItem item = make(index);
    const sts::ScheduleRequest& r = item.request;
    sts::ScheduleResult result = sts::schedule_by_name(r.scheduler, r.graph, r.machine);
    if (r.sim) {
      result.sim = sts::simulate_streaming(r.graph, *result.streaming, *result.buffers, *r.sim);
    }
    return std::make_shared<const sts::ScheduleResult>(std::move(result));
  }

  /// Round trips of GET /healthz on one keep-alive connection.
  [[nodiscard]] std::vector<double> healthz_rtts_us(int count) const {
    std::vector<double> rtts;
    sts::FdHandle conn = sts::connect_tcp("127.0.0.1", server_->port());
    const std::string request = sts::render_http_request("GET", "/healthz", "");
    const sts::HttpLimits limits;
    for (int i = 0; i < count; ++i) {
      std::string in;
      const double us = time_us([&] {
        if (!sts::send_all(conn.get(), request)) throw std::runtime_error("healthz: send failed");
        for (;;) {
          if (sts::recv_some(conn.get(), in, 4096) <= 0) {
            throw std::runtime_error("healthz: connection closed");
          }
          const sts::HttpResponseParse parsed = sts::parse_http_response(in, limits);
          if (parsed.status == sts::HttpParseStatus::kComplete) break;
          if (parsed.status == sts::HttpParseStatus::kError) {
            throw std::runtime_error("healthz: " + parsed.error);
          }
        }
      });
      rtts.push_back(us);
    }
    return rtts;
  }

  RunOptions options_;
  std::vector<sts::TaskGraph> graphs_;
  std::vector<Scenario> ranked_;    ///< base scenarios by popularity rank
  std::vector<Scenario> universe_;  ///< the whole set in seeded visit order
  std::vector<double> cdf_;         ///< Zipf CDF over ranks
  std::size_t capacity_ = 0;
  std::string log_path_;
  std::unique_ptr<sts::ServerProcess> server_;
  std::unique_ptr<sts::RemoteBackend> remote_;
  std::unique_ptr<LruModel> model_;
  std::uint64_t next_ = 0;
  std::vector<double> universe_speedups_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_serve(const RunOptions& options) {
  return std::make_unique<PaperServe>(options);
}

}  // namespace perfbench
