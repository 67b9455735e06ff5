// smpbench — the measuring binary behind perfbench/run.py.
//
//   smpbench --mode gen  --workload W --seed N --out FILE [--tiny 1]
//       Writes the workload's seeded instance as a FIMI file.
//   smpbench --mode run  --workload W --seed N --input FILE --seconds S
//                        --trace 0|1 [--tiny 1] [--trace-out FILE]
//       Loads FILE with load_ascii and measures. --trace 0 gives the
//       end-to-end metrics, --trace 1 the per-layer ones (layer replay plus
//       the observability harness). Prints one JSON "row" line with the run's
//       context, then the result object as the last line.
//   smpbench --mode pin  --workload W [--tiny 1]
//       Mines the workload with the reference configuration and prints the
//       oracle to pin in workload.cpp.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/miner.hpp"
#include "core/rules.hpp"
#include "data/db_io.hpp"
#include "median.hpp"
#include "obs_harness.hpp"
#include "replay.hpp"
#include "util/cli.hpp"
#include "util/cpu_features.hpp"
#include "workload.hpp"

using namespace smpbench;
using smpmine::Database;
using smpmine::MiningResult;

namespace {

constexpr std::uint32_t kThreads = 4;
// load_ascii runs at least kLoadReps times, and on while the loads have
// taken less than kLoadBudgetS, up to kMaxLoadReps.
constexpr int kLoadReps = 5;
constexpr int kMaxLoadReps = 20;
constexpr double kLoadBudgetS = 2.0;
constexpr int kMinReps = 3;
constexpr double kRulesSampleS = 0.1;
constexpr int kSpmdReps = 2000;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  double value;
  const char* unit;
};

/// Counts mine() calls and those that threw or missed the pinned oracle.
struct Checker {
  Checker(const Oracle& o, std::vector<smpmine::item_t> labels)
      : pinned(o), to_base(std::move(labels)) {}

  const Oracle& pinned;
  std::vector<smpmine::item_t> to_base;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string first_error;

  void fail(const std::string& why) {
    ++failed;
    correct = false;
    if (first_error.empty()) first_error = why;
  }

  bool matches(const std::vector<smpmine::FrequentSet>& levels) const {
    const Oracle got = oracle_of(levels, to_base);
    return got.digest == pinned.digest && got.frequent == pinned.frequent;
  }

  /// One timed, checked mine(); returns wall seconds, or NaN when it threw.
  double mine(const Database& db, const smpmine::MinerOptions& opts,
              MiningResult* keep = nullptr) {
    ++attempted;
    MiningResult r;
    const auto t0 = Clock::now();
    try {
      r = smpmine::mine(db, opts);
    } catch (const std::exception& e) {
      fail(std::string("mine() threw: ") + e.what());
      return std::nan("");
    }
    const double s = since(t0);
    if (!matches(r.levels)) {
      fail("mine() at P=" + std::to_string(opts.threads) +
           " differs from the pinned oracle");
    }
    if (keep != nullptr) *keep = std::move(r);
    return s;
  }

  /// The oracle must reject a result with one support changed.
  void check_rejects_tamper(const MiningResult& r) {
    std::vector<smpmine::FrequentSet> levels = r.levels;
    smpmine::FrequentSet& target = levels[levels.size() / 2];
    std::vector<smpmine::count_t> counts(target.size());
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] = target.count(i);
    counts[counts.size() / 2] += 1;
    target = smpmine::FrequentSet(target.k(), target.flat(), std::move(counts));
    if (matches(levels)) {
      correct = false;
      if (first_error.empty()) {
        first_error = "oracle accepted a result with one support changed";
      }
    }
  }
};

void print_result(const Checker& c, const std::map<std::string, Metric>& m) {
  std::string out = "{\"correct\": ";
  out += c.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(c.attempted);
  out += ", \"failed\": " + std::to_string(c.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
           json_number(metric.value) + ", \"unit\": " +
           json_string(metric.unit) + "}";
    first = false;
  }
  out += "}}";
  std::puts(out.c_str());
}

/// What the row line reports beside the metrics.
struct RunContext {
  int reps = 0;
  std::vector<std::string> not_applicable;
  std::map<std::string, std::vector<double>> samples;
};

struct RunArgs {
  const Workload* w = nullptr;
  std::uint64_t seed = kDefaultSeed;
  std::string input;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
  std::string telemetry_path;
  std::string commit;
  std::string src_digest;
};

/// Loads the input repeatedly (first rep included: the file is in the page
/// cache either way, since the generator just wrote it).
Database load(const RunArgs& a, std::vector<double>& load_s) {
  Database db;
  double total = 0.0;
  while (load_s.size() < kLoadReps ||
         (total < kLoadBudgetS && load_s.size() < kMaxLoadReps)) {
    db = Database();
    const auto t0 = Clock::now();
    db = smpmine::load_ascii(a.input);
    load_s.push_back(since(t0));
    total += load_s.back();
  }
  return db;
}

/// --trace 0: the end-to-end metrics.
std::map<std::string, Metric> end_to_end(const RunArgs& a, const Database& db,
                                         const std::vector<double>& load_s,
                                         Checker& c, RunContext& ctx) {
  const smpmine::MinerOptions par = miner_options(*a.w, kThreads);
  const smpmine::MinerOptions ser = miner_options(*a.w, 1);
  const Oracle& pinned = a.tiny ? a.w->tiny : a.w->full;

  // Warm-up: pages, allocator arenas and the oracle's own checks. The peak
  // RSS is read after one load, mine and rule pass, before the repetitions
  // (whose count depends on speed) can fragment the heap further.
  MiningResult result;
  c.mine(db, par, &result);
  if (c.correct) c.check_rejects_tamper(result);
  const auto w0 = Clock::now();
  smpmine::generate_rules_parallel(result, par.min_confidence, db.size(),
                                   kThreads);
  const double rss_mb = peak_rss_mb();
  // Rule passes per repetition: enough that a cheap pass (~10 ms on the
  // Quest workloads) is sampled as often as the mines' noise needs.
  const int rule_passes = std::clamp(
      static_cast<int>(kRulesSampleS / std::max(since(w0), 1e-6)), 1, 10);

  std::vector<double> par_s, ser_s, rules_s;
  const auto start = Clock::now();
  double rep_s = 0.0;
  int& reps = ctx.reps;
  while (reps < kMinReps || since(start) + rep_s <= a.seconds) {
    const double rep_start = since(start);
    // P=4, P=1, P=4: symmetric, so slow drift hits both widths alike, and
    // the cheaper parallel mine gets twice the samples.
    for (const bool parallel : {true, false, true}) {
      const double s = parallel ? c.mine(db, par, &result) : c.mine(db, ser);
      if (!std::isnan(s)) (parallel ? par_s : ser_s).push_back(s);
    }
    for (int r = 0; r < rule_passes; ++r) {
      const auto t0 = Clock::now();
      const std::size_t rules = smpmine::generate_rules_parallel(
          result, par.min_confidence, db.size(), kThreads).size();
      rules_s.push_back(since(t0));
      if (rules != pinned.rules) {
        c.correct = false;
        if (c.first_error.empty()) {
          c.first_error = "generate_rules_parallel returned " +
                          std::to_string(rules) + " rules, pinned " +
                          std::to_string(pinned.rules);
        }
      }
    }
    ++reps;
    rep_s = since(start) - rep_start;
  }
  const double mine_s = median(par_s);
  const double mine_serial_s = median(ser_s);
  ctx.samples = {{"mine_s", par_s},
                 {"mine_serial_s", ser_s},
                 {"rules_s", rules_s},
                 {"setup_s", load_s}};
  return {
      {"mine_s", {mine_s, "s"}},
      {"mine_serial_s", {mine_serial_s, "s"}},
      {"speedup", {mine_s > 0.0 ? mine_serial_s / mine_s : 0.0, "x"}},
      {"rules_s", {median(rules_s), "s"}},
      {"setup_s", {median(load_s), "s"}},
      {"peak_rss_mb", {rss_mb, "MB"}},
  };
}

const char* unit_of(const std::string& n) {
  if (n.ends_with(".s") || n.ends_with("_s")) return "s";
  if (n.find(".ns_per_") != std::string::npos) return "ns";
  if (n.ends_with("imbalance")) return "x";
  if (n.ends_with("_pct")) return "%";
  if (n.ends_with("_mb")) return "MB";
  if (n.ends_with("_us")) return "us";
  return "ratio";  // yield, hit_rate, serial_fraction
}

/// --trace 1: the per-layer metrics (layer replay + obs harness).
std::map<std::string, Metric> per_layer(const RunArgs& a, const Database& db,
                                        const std::vector<double>& load_s,
                                        Checker& c, RunContext& ctx) {
  const auto start = Clock::now();
  const smpmine::MinerOptions par = miner_options(*a.w, kThreads);

  // Reference mines at P=4: the replay's per-level oracle and its gap base.
  MiningResult reference;
  std::vector<double> mine_s;
  for (int r = 0; r < kMinReps; ++r) {
    const double s = c.mine(db, par, &reference);
    if (!std::isnan(s)) mine_s.push_back(s);
  }
  if (c.correct) c.check_rejects_tamper(reference);

  const double spmd_us = spmd_round_trip_us(kThreads, kSpmdReps);

  SpanLog log(kThreads);
  ++c.attempted;
  ReplayOutcome replay;
  try {
    replay = replay_mine(db, par, reference, log);
    if (!replay.matched) {
      c.fail("layer replay differs from mine(): " + replay.diagnostic);
    }
  } catch (const std::exception& e) {
    c.fail(std::string("layer replay threw: ") + e.what());
  }
  ctx.not_applicable = replay.not_applicable;
  if (!a.trace_out.empty()) log.save_chrome_trace(a.trace_out);

  const ObsOverhead obs = measure_obs_overhead(
      [&] {
        const double s = c.mine(db, par);
        return std::isnan(s) ? 0.0 : s;
      },
      a.seconds - since(start), 1, a.telemetry_path);
  ctx.reps = obs.rounds;
  ctx.samples = {{"mine_s", mine_s},
                 {"replay_wall_s", {replay.wall_s}},
                 {"setup_s", load_s}};

  std::map<std::string, Metric> m;
  for (const auto& [name, value] : replay.metrics) {
    m[name] = {value, unit_of(name)};
  }
  const double ref_s = median(mine_s);
  const double items =
      static_cast<double>(std::max<std::size_t>(1, db.total_items()));
  auto put = [&](const char* name, double value) {
    m[name] = {value, unit_of(name)};
  };
  put("data.load_ascii.ns_per_item", median(load_s) * 1e9 / items);
  put("parallel.spmd_us", spmd_us);
  put("replay.gap_pct",
      ref_s > 0.0 ? (replay.wall_s / ref_s - 1.0) * 100.0 : 0.0);
  put("obs.overhead_pct", obs.overhead_pct);
  put("obs.flight_overhead_pct", obs.flight_overhead_pct);
  put("failed_pct", 100.0 * static_cast<double>(c.failed) /
                        static_cast<double>(std::max<std::uint64_t>(
                            1, c.attempted)));
  return m;
}

int run(const RunArgs& a) {
  Checker c{a.tiny ? a.w->tiny : a.w->full, base_labels(*a.w, a.seed)};
  std::vector<double> load_s;
  RunContext ctx;
  std::map<std::string, Metric> metrics;
  Database db;
  try {
    db = load(a, load_s);
    metrics = a.trace ? per_layer(a, db, load_s, c, ctx)
                      : end_to_end(a, db, load_s, c, ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!c.first_error.empty()) {
    std::fprintf(stderr, "check failed: %s\n", c.first_error.c_str());
  }

  std::string row = "{\"row\": {\"workload\": " + json_string(a.w->name);
  row += ", \"seed\": " + std::to_string(a.seed);
  row += ", \"trace\": " + std::to_string(a.trace ? 1 : 0);
  row += ", \"tiny\": " + std::string(a.tiny ? "true" : "false");
  row += ", \"threads\": " + std::to_string(kThreads);
  row += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  row += ", \"simd\": " +
         json_string(smpmine::to_string(smpmine::simd_backend()));
  row += ", \"build_type\": " + json_string(SMPBENCH_BUILD_TYPE);
  row += ", \"commit\": " + json_string(a.commit);
  row += ", \"src_digest\": " + json_string(a.src_digest);
  row += ", \"transactions\": " + std::to_string(db.size());
  row += ", \"items\": " + std::to_string(db.total_items());
  row += ", \"reps\": " + std::to_string(ctx.reps);
  row += ", \"not_applicable\": [";
  for (std::size_t i = 0; i < ctx.not_applicable.size(); ++i) {
    row += (i ? ", " : "") + json_string(ctx.not_applicable[i]);
  }
  row += "], \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : ctx.samples) {
    row += (first ? "" : ", ") + json_string(name) + ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      row += (i ? ", " : "") + json_number(values[i]);
    }
    row += "]";
    first = false;
  }
  row += "}}}";
  std::puts(row.c_str());
  print_result(c, metrics);
  return 0;
}

/// Mines the seeded instance with the reference configuration (pointer
/// kernel, P=1) and cross-checks flat, vertical and auto at P=4.
int pin(const Workload& w, std::uint64_t seed, bool tiny) {
  const SeededInstance inst = make_instance(w, seed, tiny);
  smpmine::MinerOptions ref = miner_options(w, 1);
  ref.count_kernel = smpmine::CountKernel::Pointer;
  const MiningResult r = smpmine::mine_sequential(inst.db, ref);
  Oracle o = oracle_of(r.levels, inst.to_base);
  o.rules =
      smpmine::generate_rules(r, ref.min_confidence, inst.db.size()).size();
  for (const smpmine::CountKernel k :
       {smpmine::CountKernel::Flat, smpmine::CountKernel::Vertical,
        smpmine::CountKernel::Auto}) {
    smpmine::MinerOptions o4 = miner_options(w, kThreads);
    o4.count_kernel = k;
    const Oracle got =
        oracle_of(smpmine::mine(inst.db, o4).levels, inst.to_base);
    if (got.digest != o.digest || got.frequent != o.frequent) {
      std::fprintf(stderr, "pin: %s kernel disagrees with the reference\n",
                   smpmine::to_string(k));
      return 1;
    }
  }
  std::printf("%.*s%s: {0x%016llxULL, %llu, %llu}\n",
              static_cast<int>(w.name.size()), w.name.data(),
              tiny ? " (tiny)" : "", static_cast<unsigned long long>(o.digest),
              static_cast<unsigned long long>(o.frequent),
              static_cast<unsigned long long>(o.rules));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  smpmine::CliParser cli;
  cli.add_flag("mode", "gen | run | pin");
  cli.add_flag("workload", "quest-count | quest-build | deep-vertical");
  cli.add_flag("seed", "workload seed", "1996");
  cli.add_flag("tiny", "smoke-scale instance (0 | 1)", "0");
  cli.add_flag("out", "gen: FIMI file to write");
  cli.add_flag("input", "run: FIMI file to load");
  cli.add_flag("seconds", "run: measuring time", "10");
  cli.add_flag("trace", "run: 0 = end-to-end metrics, 1 = per-layer", "0");
  cli.add_flag("trace-out", "run: write the replay spans as Chrome JSON here");
  cli.add_flag("telemetry-out", "run: telemetry JSONL path (obs harness)");
  cli.add_flag("commit", "run: commit id recorded in the row", "unknown");
  cli.add_flag("src-digest", "run: source digest recorded in the row");
  if (!cli.parse(argc, argv)) return 2;

  const std::string mode = cli.get("mode", "");
  const Workload* w = find_workload(cli.get("workload", ""));
  if (w == nullptr) {
    std::fprintf(stderr, "error: unknown --workload '%s'\n",
                 cli.get("workload", "").c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1996));
  const bool tiny = cli.get_int("tiny", 0) != 0;

  if (mode == "gen") {
    const std::string out = cli.get("out", "");
    if (out.empty()) {
      std::fputs("error: --mode gen needs --out\n", stderr);
      return 2;
    }
    smpmine::save_ascii(make_instance(*w, seed, tiny).db, out);
    return 0;
  }
  if (mode == "pin") return pin(*w, seed, tiny);
  if (mode != "run") {
    std::fprintf(stderr, "error: unknown --mode '%s'\n", mode.c_str());
    return 2;
  }
  RunArgs a;
  a.w = w;
  a.seed = seed;
  a.tiny = tiny;
  a.input = cli.get("input", "");
  a.seconds = cli.get_double("seconds", 10.0);
  a.trace = cli.get_int("trace", 0) != 0;
  a.trace_out = cli.get("trace-out", "");
  a.telemetry_path = cli.get("telemetry-out", a.input + ".telemetry.jsonl");
  a.commit = cli.get("commit", "unknown");
  a.src_digest = cli.get("src-digest", "");
  if (a.input.empty()) {
    std::fputs("error: --mode run needs --input\n", stderr);
    return 2;
  }
  return run(a);
}
