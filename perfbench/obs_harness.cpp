#include "obs_harness.hpp"

#include <chrono>
#include <cstdio>
#include <vector>

#include "median.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "obs/ledger/ledger.hpp"
#include "obs/ledger/telemetry.hpp"
#include "obs/perf/perf_counters.hpp"
#include "obs/trace.hpp"

namespace smpbench {

namespace {

enum Config { kAllOff, kAllOn, kFlightOff, kDefaults, kConfigs };

void apply(Config c, const std::string& telemetry_path) {
  using namespace smpmine::obs;
  const bool all_on = c == kAllOn;
  Tracer::instance().set_enabled(all_on);
  perf::init(all_on ? perf::PerfBackend::Software : perf::PerfBackend::Off);
  ledger::set_enabled(c != kAllOff);
  flight::set_enabled(c == kAllOn || c == kDefaults);
  if (all_on) {
    ledger::TelemetryOptions topts;
    topts.path = telemetry_path;
    ledger::start(topts);
  }
}

/// Undoes the all-on extras after a run: the sampler stops and the trace
/// buffers are dropped so repeated rounds do not grow memory.
void settle() {
  smpmine::obs::ledger::stop();
  smpmine::obs::Tracer::instance().reset();
}

/// The shipped defaults: trace off, perf off, ledger on, flight on,
/// telemetry stopped.
void restore_obs_defaults() {
  apply(kDefaults, "");
  settle();
}

}  // namespace

ObsOverhead measure_obs_overhead(const std::function<double()>& mine_once,
                                 double budget_s, int min_rounds,
                                 const std::string& telemetry_path) {
  std::vector<double> wall[kConfigs];
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  ObsOverhead out;
  double round_s = 0.0;
  while (out.rounds < min_rounds || elapsed() + round_s <= budget_s) {
    const double round_start = elapsed();
    // Alternate the order inside each on/off pair from round to round.
    const bool flip = out.rounds % 2 == 1;
    const Config order[kConfigs] = {
        flip ? kAllOn : kAllOff, flip ? kAllOff : kAllOn,
        flip ? kDefaults : kFlightOff, flip ? kFlightOff : kDefaults};
    for (const Config c : order) {
      apply(c, telemetry_path);
      wall[c].push_back(mine_once());
      settle();
    }
    ++out.rounds;
    round_s = elapsed() - round_start;
  }
  restore_obs_defaults();
  std::remove(telemetry_path.c_str());
  out.overhead_pct = (median(wall[kAllOn]) / median(wall[kAllOff]) - 1.0) * 100.0;
  out.flight_overhead_pct =
      (median(wall[kDefaults]) / median(wall[kFlightOff]) - 1.0) * 100.0;
  return out;
}

}  // namespace smpbench
