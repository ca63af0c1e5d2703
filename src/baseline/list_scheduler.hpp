#pragma once

#include <cstdint>
#include <vector>

#include "graph/task_graph.hpp"

namespace sts {

/// Placement of one task in the non-streaming schedule.
struct ListScheduleEntry {
  std::int64_t start = 0;
  std::int64_t finish = 0;
  std::int32_t pe = -1;  ///< -1 for buffer nodes (zero-duration pass-throughs)
};

/// Non-streaming baseline schedule (paper Section 7, "NSTR-SCH"): every
/// communication is buffered through global memory, so a task starts only
/// after all its parents finished.
struct ListSchedule {
  std::vector<ListScheduleEntry> entries;  ///< indexed by NodeId
  std::int64_t makespan = 0;

  [[nodiscard]] const ListScheduleEntry& at(NodeId v) const {
    return entries[static_cast<std::size_t>(v)];
  }
};

/// Classical critical-path list scheduling for homogeneous PEs with
/// bottom-level priorities (CP/MISF-like) and insertion-based slot search:
///  - task cost  W(v) = max(I(v), O(v))  (costs proportional to data moved);
///  - communication cost 0 (producing/consuming is already accounted for);
///  - priority   bl(v) = W(v) + max over successors bl(succ), descending;
///  - each task goes to the PE offering the earliest finish time, allowed to
///    slot into idle gaps between already-placed tasks.
/// Buffer nodes take no PE and no time; they only relay precedence.
[[nodiscard]] ListSchedule schedule_non_streaming(const TaskGraph& graph, std::int64_t num_pes);

/// Bottom levels used for the priority order (exposed for tests).
[[nodiscard]] std::vector<std::int64_t> bottom_levels(const TaskGraph& graph);

}  // namespace sts
