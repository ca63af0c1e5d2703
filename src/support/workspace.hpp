#pragma once

#include "support/arena.hpp"

namespace sts {

/// Per-request scratch for the scheduler hot paths: an Arena for
/// allocation-free O(n) buffers. Owned by ScheduleContext and threaded
/// through partitioning and timing loops; every consumer accepts
/// `Workspace* ws = nullptr` and falls back to a local workspace, so direct
/// callers of the core algorithms are unaffected.
struct Workspace {
  Arena arena;
};

}  // namespace sts
