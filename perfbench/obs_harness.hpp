// Observability on/off harness for the obs.* per-layer metrics.
//
// Flips only the public toggles (Tracer::set_enabled, obs::perf::init,
// obs::ledger::set_enabled, obs::flight::set_enabled and telemetry
// start/stop) between whole mine() calls, interleaving the configurations
// round by round so drift on the host hits every side alike.
#pragma once

#include <functional>
#include <string>

namespace smpbench {

struct ObsOverhead {
  /// Median mine wall with trace, software perf, ledger, flight and
  /// telemetry all on, against all off, as a percentage over all off.
  double overhead_pct = 0.0;
  /// Median with the flight recorder at its shipped default (on) against
  /// off, everything else at shipped defaults.
  double flight_overhead_pct = 0.0;
  int rounds = 0;
};

/// Runs rounds of the four configurations until `budget_s` is spent (at
/// least `min_rounds`). `mine_once` runs one checked mine and returns its
/// wall seconds. Leaves every toggle at its shipped default.
ObsOverhead measure_obs_overhead(const std::function<double()>& mine_once,
                                 double budget_s, int min_rounds,
                                 const std::string& telemetry_path);

}  // namespace smpbench
