#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  return p;
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state ^= (value >> (8 * i)) & 0xffU;
    state *= 1099511628211ULL;
  }
}

void Digest::add(const std::string& text) {
  for (const char c : text) {
    state ^= static_cast<unsigned char>(c);
    state *= 1099511628211ULL;
  }
  add(static_cast<std::uint64_t>(text.size()));
}

namespace {

/// Drives one lane: takes the next position from `claim` until it returns
/// nothing, submitting each request and waiting for its response.
void lane_loop(sts::ScheduleBackend& backend, const std::function<StreamItem(std::uint64_t)>& make,
               const std::function<std::optional<std::uint64_t>()>& claim,
               Clock::time_point start, bool traced,
               const std::function<bool(std::uint64_t)>& keep, std::vector<Observation>& out) {
  const auto since = [start] { return seconds_since(start); };
  while (const std::optional<std::uint64_t> index = claim()) {
    StreamItem item = make(*index);
    Observation obs;
    obs.index = *index;
    obs.cls = item.cls;
    obs.submit = since();
    sts::ServiceAdmission admission = backend.submit(std::move(item.request));
    obs.submitted = since();
    obs.fast = admission.accepted() &&
               admission.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    const sts::ScheduleResponse response = admission.wait();
    obs.settled = since();
    obs.ok = response.ok();
    if (obs.ok) {
      obs.speedup = response.result->metrics.speedup;
      if (traced) {
        obs.timings = response.result->timings;
        if (response.result->sim) {
          obs.live_ticks = response.result->sim->live_ticks;
          obs.ticks_executed = response.result->sim->ticks_executed;
        }
      }
      if (keep(*index)) obs.result = response.result;
    } else {
      obs.error = response.error.empty() ? sts::to_string(response.status) : response.error;
    }
    out.push_back(std::move(obs));
  }
}

Window run_lanes(sts::ScheduleBackend& backend, const std::function<StreamItem(std::uint64_t)>& make,
                 const std::function<std::optional<std::uint64_t>()>& claim, bool traced,
                 const std::function<bool(std::uint64_t)>& keep, Clock::time_point start) {
  constexpr int kLanes = 2;
  std::vector<std::vector<Observation>> per_lane(kLanes);
  std::vector<std::exception_ptr> errors(kLanes);
  std::vector<std::thread> lanes;
  for (int lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&, lane] {
      try {
        lane_loop(backend, make, claim, start, traced, keep, per_lane[lane]);
      } catch (...) {
        errors[lane] = std::current_exception();
      }
    });
  }
  for (std::thread& t : lanes) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  Window window;
  for (auto& part : per_lane) {
    for (Observation& obs : part) {
      window.elapsed = std::max(window.elapsed, obs.settled);
      window.observations.push_back(std::move(obs));
    }
  }
  std::sort(window.observations.begin(), window.observations.end(),
            [](const Observation& a, const Observation& b) { return a.index < b.index; });
  return window;
}

}  // namespace

Window run_closed_loop(sts::ScheduleBackend& backend,
                       const std::function<StreamItem(std::uint64_t)>& make,
                       std::uint64_t first_index, double seconds, bool traced,
                       const std::function<bool(std::uint64_t)>& keep) {
  std::atomic<std::uint64_t> next{first_index};
  const Clock::time_point start = Clock::now();
  const auto claim = [&]() -> std::optional<std::uint64_t> {
    if (seconds_since(start) >= seconds) return std::nullopt;
    return next.fetch_add(1);
  };
  return run_lanes(backend, make, claim, traced, keep, start);
}

Window run_positions(sts::ScheduleBackend& backend,
                     const std::function<StreamItem(std::uint64_t)>& make,
                     const std::vector<std::uint64_t>& positions, bool traced,
                     const std::function<bool(std::uint64_t)>& keep) {
  std::atomic<std::size_t> next{0};
  const auto claim = [&]() -> std::optional<std::uint64_t> {
    const std::size_t i = next.fetch_add(1);
    if (i >= positions.size()) return std::nullopt;
    return positions[i];
  };
  return run_lanes(backend, make, claim, traced, keep, Clock::now());
}

int Tracer::add(std::uint64_t request, int parent, std::string name, double start, double end) {
  spans_.push_back(Span{request, parent, std::move(name), start, std::max(start, end)});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::append(const Tracer& other) {
  const auto base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) covered[static_cast<std::size_t>(span.parent)] += span.end - span.start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name] += std::max(0.0, span.end - span.start - covered[i]);
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"parent\": %d}}%s\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.request), s.start * 1e6,
                  (s.end - s.start) * 1e6, s.parent, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

std::string pass_span_name(const std::string& pass) {
  static const std::map<std::string, std::string> kNames = {
      {"partition", "core.partition"},
      {"streaming-schedule", "core.streaming"},
      {"buffer-sizing", "core.buffers"},
      {"metrics", "metrics"},
      {"list-schedule", "baseline.list"},
      {"simulation", "sim"},
      {"subgraph-canonicalize", "subgraph.canonicalize"},
      {"subgraph-fragments", "subgraph.fragments"},
      {"subgraph-assembly", "subgraph.assembly"},
  };
  const auto it = kNames.find(pass);
  return it == kNames.end() ? "pass." + pass : it->second;
}

void add_pass_spans(Tracer& tracer, int root, const Observation& obs) {
  double total = 0.0;
  for (const sts::PassTiming& t : obs.timings) total += t.seconds;
  double at = std::max(obs.submitted, obs.settled - total);
  for (const sts::PassTiming& t : obs.timings) {
    const double end = std::min(obs.settled, at + t.seconds);
    tracer.add(obs.index, root, pass_span_name(t.pass), at, end);
    at = end;
  }
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Value{value, unit};
  std::printf("  %-32s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::not_measured(const std::string& name, const std::string& unit,
                          const std::string& reason) {
  metrics_[name] = Value{-1.0, unit};
  std::printf("  %-32s %14s %s (-1: %s)\n", name.c_str(), "n/a", unit.c_str(), reason.c_str());
}

void Report::percentile_metric(const std::string& name, const Percentile& p,
                               const std::string& unit, bool required) {
  if (!p.supported()) {
    const std::string why = "n=" + std::to_string(p.samples) + ", only " +
                            std::to_string(p.beyond) + " samples beyond";
    if (required) fail("percentile guard: " + name + " has " + why);
    not_measured(name, unit, why);
    return;
  }
  metrics_[name] = Value{p.value, unit};
  std::printf("  %-32s %14.6g %s (n=%zu, %zu beyond)\n", name.c_str(), p.value, unit.c_str(),
              p.samples, p.beyond);
}

void Report::fail(const std::string& why) {
  failures_.push_back(why);
  std::printf("FAIL: %s\n", why.c_str());
}

void Report::print_result(std::uint64_t attempted, std::uint64_t failed,
                          const std::vector<std::string>& names) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << it->second.value
        << ", \"unit\": \"" << it->second.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
