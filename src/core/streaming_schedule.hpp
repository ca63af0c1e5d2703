#pragma once

#include <cstdint>
#include <vector>

#include "core/partition.hpp"
#include "core/streaming_intervals.hpp"
#include "graph/task_graph.hpp"
#include "support/rational.hpp"

namespace sts {

/// Timing of one task in the streaming schedule (paper Section 5.1).
struct TaskTiming {
  std::int64_t start = 0;      ///< ST(v): when the task begins holding its PE
  std::int64_t first_out = 0;  ///< FO(v): when the first element leaves v
  std::int64_t last_out = 0;   ///< LO(v): when the last element leaves v
  Rational s_in{0};            ///< steady-state input interval within the block
  Rational s_out{0};           ///< steady-state output interval within the block
  std::int32_t pe = -1;        ///< PE index within the block; -1 for buffers
  std::int32_t block = -1;     ///< owning spatial block; -1 for buffers
};

/// A complete streaming schedule: spatial blocks executed back-to-back, tasks
/// inside a block co-scheduled with pipelined (streamed) communication.
struct StreamingSchedule {
  SpatialPartition partition;
  std::vector<TaskTiming> timing;        ///< indexed by NodeId
  std::vector<std::int64_t> block_start; ///< BS_i: release time of block i
  std::vector<std::int64_t> block_end;   ///< max LO over block i members
  std::int64_t makespan = 0;             ///< max finishing time of any exit node

  [[nodiscard]] const TaskTiming& at(NodeId v) const {
    return timing[static_cast<std::size_t>(v)];
  }
};

/// Computes ST/FO/LO for every task of every spatial block, scheduling the
/// blocks one after the other (Section 5.1). The recurrences extend the
/// paper's formulas to block sources that ingest from global memory; they
/// reproduce the paper's Figure 8 and Figure 9 tables exactly (see tests).
///
/// Preconditions: `graph.validate()` is clean and `partition` is valid.
///
/// Runs in O(N + E) total across all blocks: each block only visits its
/// active set (members plus the buffers feeding them) with a block-local
/// stream-context computation over persistent arena scratch, instead of
/// rescanning the whole graph per block. A Workspace supplies that arena;
/// pass nullptr for a self-contained local workspace. Results are identical
/// either way.
[[nodiscard]] StreamingSchedule schedule_streaming(const TaskGraph& graph,
                                                   SpatialPartition partition,
                                                   Workspace* ws = nullptr);

}  // namespace sts
