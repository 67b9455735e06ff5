// Layer replay: re-drives one CCPD mine level by level through the public
// function of each layer, with a span around every call (span_log.hpp), and
// turns the spans into the per-layer metrics.
//
// The level loop follows core/ccpd.cpp for the configurations the benchmark
// runs (LCA-GPP placement, so per-thread counters and a reduce phase, and
// the flat or vertical kernel). Beside the real path it times the kernel
// Auto would have rejected ("shadow" spans, outside replay time) so the
// chooser's regret is measured, not modelled.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/stats.hpp"
#include "data/database.hpp"
#include "span_log.hpp"

namespace smpbench {

struct ReplayOutcome {
  /// The replay's F(k) equal `reference.levels` at every level.
  bool matched = false;
  std::string diagnostic;
  /// Replay wall time from F1 to the last select, shadow spans excluded.
  double wall_s = 0.0;
  /// Per-layer metrics, keyed by their BENCHMARK.json names.
  std::map<std::string, double> metrics;
  /// Metrics whose layer never ran on this workload (reported as 0).
  std::vector<std::string> not_applicable;
};

/// Replays one mine of `db` under `opts` (LCA-GPP, flat/vertical/auto
/// kernel) and times generate_rules_parallel on `reference`. Throws
/// std::invalid_argument for configurations the replay does not cover.
ReplayOutcome replay_mine(const smpmine::Database& db,
                          const smpmine::MinerOptions& opts,
                          const smpmine::MiningResult& reference,
                          SpanLog& log);

/// Median round trip of an empty run_spmd on a pool of `threads`, in us.
double spmd_round_trip_us(std::uint32_t threads, int reps);

}  // namespace smpbench
