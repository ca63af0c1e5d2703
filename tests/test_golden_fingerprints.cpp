// Golden result fingerprints: every registered scheduler on the Section 7.1
// topologies (Chain-8, FFT-32, Gaussian-16, Cholesky-8; seed 7) at two PE
// counts. The values were recorded before the partitioner's ready set moved
// from a per-pick linear scan to priority heaps; they pin the full
// ScheduleResult (see result_fingerprint.hpp) across such rewrites. A
// mismatch means a result changed: find out why instead of re-recording.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "pipeline/registry.hpp"
#include "pipeline/result_fingerprint.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

struct Golden {
  const char* generator;
  int param;
  const char* scheduler;
  std::int64_t pes;
  std::uint64_t fingerprint;
};

constexpr std::uint64_t kSeed = 7;

constexpr Golden kGolden[] = {
      {"chain", 8, "csdf", 4, 0xd78da8cfee2b4306ULL},
      {"chain", 8, "csdf", 8, 0xd78da8cfee2b4306ULL},
      {"chain", 8, "heft", 4, 0xc11c8d4e21c327bfULL},
      {"chain", 8, "heft", 8, 0x0d2a0f2469c603baULL},
      {"chain", 8, "list", 4, 0x6468cea55d0212e1ULL},
      {"chain", 8, "list", 8, 0xdd53e6f297d759ccULL},
      {"chain", 8, "streaming-lts", 4, 0x9b8a35069b8d9906ULL},
      {"chain", 8, "streaming-lts", 8, 0x05d1851903043041ULL},
      {"chain", 8, "streaming-rlx", 4, 0x107ed2a04bd50505ULL},
      {"chain", 8, "streaming-rlx", 8, 0xf6c7f239ab51859dULL},
      {"chain", 8, "streaming-work", 4, 0x90a6dd9ba140178aULL},
      {"chain", 8, "streaming-work", 8, 0x567568f89a0095bcULL},
      {"fft", 32, "csdf", 4, 0x3996466bf18d1eb2ULL},
      {"fft", 32, "csdf", 8, 0x3996466bf18d1eb2ULL},
      {"fft", 32, "heft", 4, 0x1e6e524d80cebd29ULL},
      {"fft", 32, "heft", 8, 0x96a3b3ecc9723e2eULL},
      {"fft", 32, "list", 4, 0x8cbb2bf084ac8d31ULL},
      {"fft", 32, "list", 8, 0xfe4e893c946474d4ULL},
      {"fft", 32, "streaming-lts", 4, 0x1d453e1b4752f622ULL},
      {"fft", 32, "streaming-lts", 8, 0x017759ed15969f3bULL},
      {"fft", 32, "streaming-rlx", 4, 0xb2272976818dbd39ULL},
      {"fft", 32, "streaming-rlx", 8, 0x11e36ef0317836afULL},
      {"fft", 32, "streaming-work", 4, 0x094cecbb5d72b93eULL},
      {"fft", 32, "streaming-work", 8, 0xb571db62c8b3f235ULL},
      {"gaussian", 16, "csdf", 4, 0x79aa368ceca40389ULL},
      {"gaussian", 16, "csdf", 8, 0x79aa368ceca40389ULL},
      {"gaussian", 16, "heft", 4, 0x76dd565cf327172aULL},
      {"gaussian", 16, "heft", 8, 0x654953fecf0a481fULL},
      {"gaussian", 16, "list", 4, 0xd391e6868360ed5eULL},
      {"gaussian", 16, "list", 8, 0x2aeb8c1e9ab64f2dULL},
      {"gaussian", 16, "streaming-lts", 4, 0x8c53b6bc4dcb7ea9ULL},
      {"gaussian", 16, "streaming-lts", 8, 0xff4dfd99b6e4db94ULL},
      {"gaussian", 16, "streaming-rlx", 4, 0x400032ae0b462600ULL},
      {"gaussian", 16, "streaming-rlx", 8, 0x25a2be0a9b0e8b42ULL},
      {"gaussian", 16, "streaming-work", 4, 0x4dc05c2b02393275ULL},
      {"gaussian", 16, "streaming-work", 8, 0xea8879b2627a1470ULL},
      {"cholesky", 8, "csdf", 4, 0x73276d40be150a8cULL},
      {"cholesky", 8, "csdf", 8, 0x73276d40be150a8cULL},
      {"cholesky", 8, "heft", 4, 0x9a98afe0c487f6d5ULL},
      {"cholesky", 8, "heft", 8, 0x0b099d1aa9325cfcULL},
      {"cholesky", 8, "list", 4, 0x5f3fac12989ea6cdULL},
      {"cholesky", 8, "list", 8, 0xa270bf95b22d6ffdULL},
      {"cholesky", 8, "streaming-lts", 4, 0x7221503f57a0015eULL},
      {"cholesky", 8, "streaming-lts", 8, 0x7262508037ae5dbaULL},
      {"cholesky", 8, "streaming-rlx", 4, 0x2f0bbdfe6a9390bdULL},
      {"cholesky", 8, "streaming-rlx", 8, 0xd18ed49dcccf8658ULL},
      {"cholesky", 8, "streaming-work", 4, 0x7d6a3c1a6e86c136ULL},
      {"cholesky", 8, "streaming-work", 8, 0x325ccaf5d4a1719aULL},
};

TaskGraph topology(const std::string& generator, int param) {
  if (generator == "chain") return make_chain(param, kSeed);
  if (generator == "fft") return make_fft(param, kSeed);
  if (generator == "gaussian") return make_gaussian_elimination(param, kSeed);
  return make_cholesky(param, kSeed);
}

TEST(GoldenFingerprints, PaperTopologiesMatchRecordedValues) {
  for (const Golden& g : kGolden) {
    MachineConfig machine;
    machine.num_pes = g.pes;
    const std::uint64_t got =
        result_fingerprint(schedule_by_name(g.scheduler, topology(g.generator, g.param), machine));
    EXPECT_EQ(got, g.fingerprint) << g.generator << "-" << g.param << " / " << g.scheduler
                                  << " / pes=" << g.pes;
  }
}

TEST(GoldenFingerprints, CoverEveryRegisteredScheduler) {
  std::set<std::string> covered;
  for (const Golden& g : kGolden) covered.insert(g.scheduler);
  for (const std::string& name : SchedulerRegistry::instance().names()) {
    EXPECT_TRUE(covered.count(name) == 1) << "no golden fingerprint for scheduler " << name;
  }
}

}  // namespace
}  // namespace sts
