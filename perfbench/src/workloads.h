// The three workloads. Each builds its system from the run seed, sets it up
// several times (setup_s is the median), measures one untraced window
// (end-to-end metrics) and, with --trace 1, a traced window (per-layer
// metrics), then verifies every answer against a fresh activation scan.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common/status.h"
#include "harness.h"

namespace perfbench {

/// MiniVgg interpretation sessions, each on a fresh engine with no
/// indexes: the first query on a layer builds its index (paper §4.6), IQA
/// is smaller than the working set, and inference dominates.
deepeverest::Status RunSessionCold(const RunConfig& config, RunReport* report);

/// Related-query chains (paper §5.6) on prebuilt indexes with an IQA cache
/// holding the whole working set: zero inference, so NTA bookkeeping, IQA
/// gathers and the kernels make up the time.
deepeverest::Status RunSessionWarm(const RunConfig& config, RunReport* report);

/// A loopback HTTP QueryServer over the TinyMlp demo system: closed-loop
/// query connections next to an open-loop durable ingest stream.
deepeverest::Status RunServeIngest(const RunConfig& config, RunReport* report);

/// Setup repetitions per run (setup_s is their median).
inline int SetupRepetitions(const RunConfig& config) {
  return config.tiny ? 2 : 5;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
