#include "service/schedule_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "paper_examples.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/result_fingerprint.hpp"
#include "service/request.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

MachineConfig machine_with(std::int64_t pes) {
  MachineConfig machine;
  machine.num_pes = pes;
  return machine;
}

ScheduleRequest request_for(const TaskGraph& graph, std::string scheduler, std::int64_t pes) {
  ScheduleRequest request;
  request.graph = graph;
  request.scheduler = std::move(scheduler);
  request.machine.num_pes = pes;
  return request;
}

TEST(ScheduleService, MatchesDirectScheduling) {
  ScheduleService service(ServiceConfig{2, 4096});
  const TaskGraph g = make_fft(16, 7);
  auto future = service.submit(request_for(g, "streaming-rlx", 16)).future;
  const auto result = future.get();
  ASSERT_NE(result, nullptr);

  const ScheduleResult direct = schedule_by_name("streaming-rlx", g, machine_with(16));
  EXPECT_EQ(result->makespan, direct.makespan);
  EXPECT_EQ(result->buffers->total_capacity, direct.buffers->total_capacity);

  // Counters are published after the promise, so synchronize via wait_idle.
  service.wait_idle();
  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ScheduleService, ScheduleReturnsOkResponse) {
  ScheduleService service(ServiceConfig{2, 4096});
  const ScheduleResponse response =
      service.schedule(request_for(testing::figure8_graph(), "streaming-rlx", 8));
  ASSERT_TRUE(response.ok());
  ASSERT_NE(response.result, nullptr);
  EXPECT_GT(response.result->makespan, 0);
  EXPECT_FALSE(response.rejected.has_value());
  EXPECT_TRUE(response.error.empty());

  const std::string json = response.to_json();
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"makespan\": "), std::string::npos) << json;
}

TEST(ScheduleService, ScheduleFoldsErrorsIntoTheResponse) {
  ScheduleService service(ServiceConfig{2, 4096});
  const ScheduleResponse response =
      service.schedule(request_for(testing::figure8_graph(), "no-such-scheduler", 8));
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status, ScheduleResponse::Status::kError);
  EXPECT_NE(response.error.find("no-such-scheduler"), std::string::npos) << response.error;
  EXPECT_NE(response.to_json().find("\"status\": \"error\""), std::string::npos);
}

TEST(ScheduleService, SecondSubmissionTakesFastPath) {
  ScheduleService service(ServiceConfig{2, 4096});
  const TaskGraph g = testing::figure8_graph();
  const auto first = service.submit(request_for(g, "streaming-rlx", 8)).future.get();
  auto second_future = service.submit(request_for(g, "streaming-rlx", 8)).future;
  // A cached result resolves synchronously inside submit.
  EXPECT_EQ(second_future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(second_future.get().get(), first.get()) << "same immutable result object";
  EXPECT_EQ(service.stats().fast_path_hits, 1u);
}

TEST(ScheduleService, DuplicateSubmissionsComputeOnce) {
  constexpr int kCopies = 24;
  ScheduleService service(ServiceConfig{4, 4096});
  const TaskGraph g = make_cholesky(6, 3);

  std::vector<ScheduleService::Future> futures;
  futures.reserve(kCopies);
  for (int i = 0; i < kCopies; ++i) {
    futures.push_back(service.submit(request_for(g, "streaming-rlx", 16)).future);
  }
  const ScheduleService::ResultPtr first = futures.front().get();
  for (auto& f : futures) {
    if (f.valid()) EXPECT_EQ(f.get().get(), first.get());
  }
  service.wait_idle();

  // Single-flight: exactly one schedule computed; every other submission was
  // a cache hit (fast path or worker) or joined the in-flight computation.
  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits + stats.cache.races, static_cast<std::uint64_t>(kCopies - 1));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kCopies));
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ScheduleService, SweepAcrossWorkersMatchesDirect) {
  ScheduleService service(ServiceConfig{4, 1 << 16});
  struct Case {
    TaskGraph graph;
    std::int64_t pes;
  };
  std::vector<Case> cases;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    cases.push_back({make_fft(16, seed), 24});
    cases.push_back({make_gaussian_elimination(8, seed), 16});
    cases.push_back({make_chain(8, seed), 4});
  }

  std::vector<ScheduleService::Future> futures;
  futures.reserve(cases.size());
  for (const Case& c : cases) {
    futures.push_back(service.submit(request_for(c.graph, "streaming-rlx", c.pes)).future);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto result = futures[i].get();
    const ScheduleResult direct =
        schedule_by_name("streaming-rlx", cases[i].graph, machine_with(cases[i].pes));
    EXPECT_EQ(result->makespan, direct.makespan) << "case " << i;
  }
  EXPECT_EQ(service.stats().cache.misses, cases.size());
}

TEST(ScheduleService, PropagatesSchedulerErrorsAndStaysHealthy) {
  ScheduleService service(ServiceConfig{2, 4096});
  const TaskGraph g = testing::figure8_graph();

  auto bad = service.submit(request_for(g, "no-such-scheduler", 8)).future;
  EXPECT_THROW((void)bad.get(), std::invalid_argument);

  // The failure is accounted and the service keeps serving.
  service.wait_idle();
  EXPECT_EQ(service.stats().failed, 1u);
  const auto good = service.submit(request_for(g, "streaming-rlx", 8)).future.get();
  EXPECT_GT(good->makespan, 0);
}

TEST(ScheduleService, FailedComputationIsRetriedNotCached) {
  ScheduleService service(ServiceConfig{2, 4096});
  const TaskGraph g = testing::figure9_graph1();
  EXPECT_THROW((void)service.submit(request_for(g, "no-such-scheduler", 8)).future.get(),
               std::invalid_argument);
  EXPECT_THROW((void)service.submit(request_for(g, "no-such-scheduler", 8)).future.get(),
               std::invalid_argument);
  service.wait_idle();
  // Both submissions actually attempted the computation: a failure must not
  // poison the cache.
  EXPECT_EQ(service.stats().cache.misses, 2u);
  EXPECT_EQ(service.cache().size(), 0u);
}

TEST(ScheduleService, WaitIdleDrainsEverything) {
  ScheduleService service(ServiceConfig{3, 1 << 16});
  constexpr int kJobs = 30;
  std::vector<ScheduleService::Future> futures;
  futures.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    futures.push_back(
        service
            .submit(request_for(make_chain(8, static_cast<std::uint64_t>(i)), "streaming-rlx",
                                4))
            .future);
  }
  service.wait_idle();
  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kJobs));
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_GT(f.get()->makespan, 0);
  }
}

TEST(ScheduleService, ShutdownDrainsQueuedJobsAndRejectsNewOnes) {
  std::vector<ScheduleService::Future> futures;
  ScheduleService service(ServiceConfig{1, 4096});
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service
                          .submit(request_for(make_fft(8, static_cast<std::uint64_t>(i)),
                                              "streaming-rlx", 8))
                          .future);
  }
  service.shutdown();
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_GT(f.get()->makespan, 0) << "queued jobs must be drained, not abandoned";
  }
  EXPECT_THROW((void)service.submit(request_for(make_chain(4, 1), "streaming-rlx", 4)),
               std::runtime_error);
}

TEST(ScheduleService, SimRequestsCacheSeparatelyFromPlain) {
  // Presence of `sim` is part of the request identity: a simulated and a
  // plain request for the same scenario must not share a cache entry.
  ScheduleService service(ServiceConfig{2, 4096});
  ScheduleRequest plain = request_for(testing::figure8_graph(), "streaming-rlx", 8);
  ScheduleRequest simulated = plain;
  simulated.sim = SimOptions{};

  EXPECT_NE(plain.key(), simulated.key());
  const auto plain_result = service.submit(std::move(plain)).future.get();
  const auto sim_result = service.submit(std::move(simulated)).future.get();
  EXPECT_FALSE(plain_result->sim.has_value());
  ASSERT_TRUE(sim_result->sim.has_value());
  EXPECT_NE(plain_result.get(), sim_result.get());
  service.wait_idle();
  EXPECT_EQ(service.stats().simulated, 1u);
}

TEST(ScheduleService, StatsJsonCarriesCacheWeight) {
  ScheduleService service(ServiceConfig{2, 4096});
  const TaskGraph g = testing::figure8_graph();
  (void)service.submit(request_for(g, "streaming-rlx", 8)).future.get();
  service.wait_idle();
  EXPECT_EQ(service.cache().total_weight(), g.node_count());
  const std::string json = service.stats_json();
  EXPECT_NE(json.find("\"cache_weight\": " + std::to_string(g.node_count())),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cache_evicted_weight\": 0"), std::string::npos) << json;
}

TEST(ScheduleService, StatsCountEveryResultItsCallerHolds) {
  // A caller that holds a result must find it counted in stats(): the
  // service counts a job's completion in the same critical section that
  // publishes its value. Every request is a distinct cache miss, so it runs
  // on a worker; a background reader keeps the stats lock busy, which widens
  // any window between publishing a value and counting it.
  ServiceConfig config;
  config.num_workers = 4;
  ScheduleService service(config);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) (void)service.stats();
  });
  constexpr int kClients = 4;
  constexpr int kPerClient = 300;
  std::atomic<std::uint64_t> returned{0};
  std::atomic<int> uncounted{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const ScheduleResponse response = service.schedule(
            request_for(testing::figure8_graph(), "streaming-rlx", 1 + c * kPerClient + i));
        if (!response.ok()) ++failed;
        // Every result counted in `held` was returned before this read.
        const std::uint64_t held = returned.fetch_add(1) + 1;
        if (service.stats().completed < held) ++uncounted;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(uncounted.load(), 0) << "a result was returned before it was counted";
  EXPECT_EQ(service.stats().completed, static_cast<std::uint64_t>(kClients * kPerClient));
}

TEST(ScheduleService, DefaultsToHardwareConcurrency) {
  ScheduleService service;
  EXPECT_GE(service.worker_count(), 1u);
}

TEST(ScheduleService, TtlExpiresCachedResults) {
  ServiceConfig config;
  config.num_workers = 1;
  config.cache_ttl = std::chrono::nanoseconds{0};
  ScheduleService service(config);
  const ScheduleRequest request = request_for(testing::figure8_graph(), "streaming-rlx", 4);

  const ScheduleResponse first = service.schedule(request);
  ASSERT_TRUE(first.ok());
  const ScheduleResponse second = service.schedule(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(result_fingerprint(*first.result), result_fingerprint(*second.result));

  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.cache.misses, 2u) << "a zero ttl must force recomputation";
  // One entry dropped by the second submission's probe, plus the second
  // result which (zero ttl) is already expired-but-resident at the snapshot
  // — stats() reports both so it always agrees with lookup behavior.
  EXPECT_EQ(stats.cache.expired, 2u);
  EXPECT_EQ(stats.fast_path_hits, 0u);
  EXPECT_NE(service.stats_json().find("\"cache_expired\": 2"), std::string::npos);
}

}  // namespace
}  // namespace sts
