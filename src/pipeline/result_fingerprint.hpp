#pragma once

#include <cstdint>

#include "pipeline/scheduler.hpp"

namespace sts {

/// Order-sensitive 64-bit digest (FNV-1a over a canonical byte rendering) of
/// every result-bearing field of a ScheduleResult: the scheduler name, the
/// partition/timing/block vectors of a streaming schedule, the buffer plan,
/// the list schedule, CSDF analysis, placement, simulation outcome, metrics,
/// and the makespan. Wall-clock pass timings are deliberately excluded —
/// they are the only fields allowed to differ between two runs of the same
/// scenario.
///
/// Two results fingerprint identically iff every schedule decision, every
/// ST/FO/LO value, and every FIFO capacity match bit-for-bit, so
/// differential and golden-value tests (subgraph assembly vs. cold runs,
/// tests/test_golden_fingerprints.cpp) compare whole results with one
/// integer comparison.
[[nodiscard]] std::uint64_t result_fingerprint(const ScheduleResult& result);

}  // namespace sts
