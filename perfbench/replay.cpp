#include "replay.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "core/brute_force.hpp"
#include "core/candidate_gen.hpp"
#include "core/miner.hpp"
#include "core/rules.hpp"
#include "core/select.hpp"
#include "data/db_partition.hpp"
#include "hashtree/frozen_tree.hpp"
#include "hashtree/vertical_index.hpp"
#include "itemset/eqclass.hpp"
#include "median.hpp"
#include "parallel/thread_pool.hpp"

namespace smpbench {

using namespace smpmine;

namespace {

/// Share of D the shadow flat kernel counts when Auto rejected it; its time
/// is scaled up by the inverse. Transactions are shuffled per seed, so a
/// prefix is a uniform sample.
constexpr std::uint64_t kShadowFlatSampleDiv = 16;

/// Work tallies gathered at the span boundaries while the replay runs.
struct Tally {
  std::uint64_t generated = 0;
  std::uint64_t pruned = 0;
  std::uint64_t candidates = 0;
  std::uint64_t remap_nodes = 0;
  std::uint64_t frozen_nodes = 0;
  std::uint64_t tree_bytes_max = 0;
  std::uint64_t flat_levels = 0;
  std::uint64_t hits = 0;
  std::uint64_t containment_checks = 0;
  std::uint64_t vertical_slots = 0;
  std::uint64_t vertical_words = 0;
  double chooser_pick_s = 0.0;
  double chooser_best_s = 0.0;
  std::uint64_t rules = 0;
};

std::pair<std::uint32_t, std::uint32_t> slot_range(std::uint32_t n,
                                                   std::uint32_t tid,
                                                   std::uint32_t parts) {
  const std::uint32_t per = (n + parts - 1) / parts;
  const std::uint32_t begin = std::min(n, tid * per);
  return {begin, std::min(n, begin + per)};
}

/// Seconds of the master spans named `name`.
double master_s(const SpanLog& log, std::string_view name) {
  double s = 0.0;
  for (const Span& sp : log.master()) {
    if (!sp.excluded && sp.name == name) s += sp.seconds();
  }
  return s;
}

/// Seconds of every span named `name`, master and worker: busy time.
double busy_s(const SpanLog& log, std::string_view name) {
  double s = master_s(log, name);
  for (const auto& spans : log.workers()) {
    for (const Span& sp : spans) {
      if (!sp.excluded && sp.name == name) s += sp.seconds();
    }
  }
  return s;
}

/// Sum over levels of the slowest thread's busy time, over the sum of the
/// mean thread's: 1.0 is perfect balance, P is one thread doing everything.
/// A level where the call ran once on the master counts as balanced.
double imbalance(const SpanLog& log, std::string_view name,
                 std::uint32_t threads) {
  std::map<std::uint32_t, std::vector<double>> by_level;
  for (const auto& spans : log.workers()) {
    for (const Span& sp : spans) {
      if (sp.excluded || sp.name != name) continue;
      auto& busy = by_level[sp.k];
      busy.resize(threads, 0.0);
      busy[static_cast<std::size_t>(sp.tid)] += sp.seconds();
    }
  }
  for (const Span& sp : log.master()) {
    if (!sp.excluded && sp.name == name) by_level[sp.k].push_back(sp.seconds());
  }
  double sum_max = 0.0, sum_mean = 0.0;
  for (const auto& [k, busy] : by_level) {
    double total = 0.0, mx = 0.0;
    for (const double b : busy) {
      total += b;
      mx = std::max(mx, b);
    }
    sum_max += mx;
    sum_mean += total / static_cast<double>(busy.size());
  }
  return sum_mean > 0.0 ? sum_max / sum_mean : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

ReplayOutcome replay_mine(const Database& db, const MinerOptions& opts,
                          const MiningResult& reference, SpanLog& log) {
  MinerOptions o = opts;
  o.validate();
  if (o.algorithm != Algorithm::CCPD ||
      o.counter_mode != CounterMode::PerThread ||
      o.count_kernel == CountKernel::Pointer || o.candidate_veto) {
    throw std::invalid_argument(
        "layer replay covers CCPD with LCA-GPP and the flat, vertical or "
        "auto kernel only");
  }
  ReplayOutcome out;
  Tally t;
  const std::uint64_t start_ns = log.now();
  const count_t min_count = absolute_support(o.min_support, db.size());

  std::optional<ThreadPool> pool;
  {
    SpanLog::Scope s(log, "parallel.ThreadPool", 0, false);
    pool.emplace(o.threads);
  }
  const std::uint32_t threads = pool->size();
  std::vector<FrequentSet> levels;
  {
    SpanLog::Scope s(log, "core.compute_f1", 1, true);
    levels.push_back(compute_f1(db, min_count, *pool));
    s.work(db.size());
  }
  std::optional<PlacementArenas> arenas;
  DbRanges ranges;
  {
    SpanLog::Scope s(log, "replay.setup", 1, false);
    arenas.emplace(o.placement, o.spp_variant);
    ranges = partition_database(db, threads, o.db_partition);
  }
  std::vector<FlatCountContext> contexts(threads);
  std::vector<FlatCountContext> shadow(threads);

  for (std::uint32_t k = 2; k <= o.max_iterations; ++k) {
    const FrequentSet& prev = levels.back();
    if (prev.size() < 2) break;

    std::vector<EqClass> classes;
    std::vector<GenUnit> units;
    {
      SpanLog::Scope s(log, "itemset.build_equivalence_classes", k, false);
      classes = build_equivalence_classes(prev);
      s.work(classes.size());
    }
    {
      SpanLog::Scope s(log, "itemset.generation_units", k, false);
      units = generation_units(classes, k);
      s.work(units.size());
    }
    if (units.empty()) break;

    std::optional<HashPolicy> policy;
    std::optional<HashTree> tree;
    {
      SpanLog::Scope s(log, "replay.setup", k, false);
      const std::uint32_t fanout =
          o.adaptive_fanout
              ? adaptive_fanout(total_join_pairs(classes), k, o.leaf_threshold,
                                o.min_fanout, o.max_fanout)
              : o.fixed_fanout;
      policy.emplace(make_hash_policy(o.hash_scheme, fanout, levels.front(),
                                      db.item_universe()));
      arenas->reset();
      tree.emplace(HashTreeConfig{k, fanout, o.leaf_threshold, o.counter_mode},
                   *policy, *arenas);
    }

    // ---- candidate generation (ccpd.cpp step 1) ---------------------------
    const bool parallel_gen =
        threads > 1 && prev.size() >= o.parallel_candgen_threshold;
    {
      SpanLog::Scope s(log, "phase.candgen", k, parallel_gen);
      CandGenCounters gen;
      if (parallel_gen) {
        std::vector<std::vector<GenUnit>> batches;
        {
          SpanLog::Scope b(log, "itemset.balance_generation", k, false);
          batches = balance_generation(units, threads, o.balance);
        }
        std::vector<CandGenCounters> per_thread(threads);
        pool->run_spmd([&](std::uint32_t tid) {
          log.worker(tid, "core.generate_candidates", k, [&] {
            per_thread[tid] =
                generate_candidates(prev, classes, batches[tid], *tree);
            return per_thread[tid].generated;
          });
        });
        for (const CandGenCounters& c : per_thread) gen += c;
      } else {
        SpanLog::Scope g(log, "core.generate_candidates", k, false);
        gen = generate_candidates(prev, classes, units, *tree);
        g.work(gen.generated);
      }
      s.work(gen.generated);
      t.generated += gen.generated;
      t.pruned += gen.pruned;
    }
    const std::uint32_t n_cand = tree->num_candidates();
    if (n_cand == 0) break;
    t.candidates += n_cand;

    // ---- remap, kernel choice, freeze (steps 2 and the kernel setup) ------
    {
      SpanLog::Scope s(log, "hashtree.remap_depth_first", k, false);
      if (policy_remaps(o.placement)) tree->remap_depth_first();
      s.work(tree->num_nodes());
      t.remap_nodes += tree->num_nodes();
    }
    {
      SpanLog::Scope s(log, "replay.setup", k, false);
      tree->candidate_index();
      t.tree_bytes_max = std::max(t.tree_bytes_max, tree->stats().bytes_used);
    }
    std::vector<item_t> tracked;
    KernelCostInputs ci;
    CountKernel resolved;
    {
      SpanLog::Scope s(log, "hashtree.resolve_count_kernel", k, false);
      ci.k = k;
      ci.candidates = n_cand;
      ci.transactions = db.size();
      ci.avg_transaction_len = db.avg_transaction_size();
      ci.max_flat_k = FrozenTree::kMaxK;
      if (o.count_kernel != CountKernel::Flat) {
        tracked = distinct_items(prev.flat());
        ci.distinct_items = tracked.size();
      }
      resolved = resolve_count_kernel(o.count_kernel, ci);
    }
    if (resolved == CountKernel::Pointer) {
      throw std::runtime_error("layer replay hit the pointer-kernel fallback");
    }
    const bool vertical = resolved == CountKernel::Vertical;
    std::optional<FrozenTree> frozen;
    {
      SpanLog::Scope s(log, "hashtree.FrozenTree", k, false);
      frozen.emplace(*tree, *arenas);
      s.work(frozen->num_nodes());
      t.frozen_nodes += frozen->num_nodes();
    }

    std::optional<VerticalIndex> vidx;
    double vertbuild_s = 0.0;
    if (vertical) {
      std::size_t span = 0;
      {
        SpanLog::Scope s(log, "phase.vertbuild", k, true);
        span = s.index();
        {
          SpanLog::Scope c(log, "hashtree.VerticalIndex", k, false);
          vidx.emplace(db, tracked, *arenas);
        }
        const std::uint64_t plane = vidx->rows() * vidx->words();
        pool->run_spmd([&](std::uint32_t tid) {
          log.worker(tid, "hashtree.build_partition", k, [&] {
            vidx->build_partition(db, tid, threads);
            return plane / threads;
          });
        });
        s.work(plane);
        t.vertical_words += plane;
      }
      vertbuild_s = log.master()[span].seconds();
    }

    // ---- support counting (step 3) ----------------------------------------
    std::size_t count_span = 0;
    {
      SpanLog::Scope s(log, vertical ? "phase.count_vertical" : "phase.count_flat",
                       k, true);
      count_span = s.index();
      pool->run_spmd([&](std::uint32_t tid) {
        FlatCountContext& ctx = contexts[tid];
        if (vertical) {
          log.worker(tid, "hashtree.count_slots_vertical", k, [&] {
            frozen->prepare_context(ctx);
            const auto [b, e] = slot_range(frozen->num_candidates(), tid,
                                           threads);
            frozen->count_slots_vertical(*vidx, b, e, ctx);
            return std::uint64_t{e - b};
          });
        } else {
          log.worker(tid, "hashtree.count_range", k, [&] {
            frozen->prepare_context(ctx);
            frozen->count_range(db, ranges.begin(tid), ranges.end(tid), ctx);
            return ranges.end(tid) - ranges.begin(tid);
          });
        }
      });
    }
    const double count_s = log.master()[count_span].seconds();
    if (vertical) {
      t.vertical_slots += n_cand;
    } else {
      ++t.flat_levels;
      for (const FlatCountContext& ctx : contexts) {
        t.hits += ctx.hits;
        t.containment_checks += ctx.containment_checks;
      }
    }

    // ---- LCA reduction + thaw (step 4) -------------------------------------
    {
      SpanLog::Scope s(log, "phase.reduce", k, true);
      pool->run_spmd([&](std::uint32_t tid) {
        log.worker(tid, "hashtree.reduce_into_shared", k, [&] {
          const auto [b, e] = slot_range(n_cand, tid, threads);
          for (const FlatCountContext& ctx : contexts) {
            frozen->reduce_into_shared(ctx, b, e);
          }
          return std::uint64_t{e - b};
        });
      });
      SpanLog::Scope thaw(log, "hashtree.thaw_counts", k, false);
      frozen->thaw_counts(*tree);
    }

    // ---- selection (step 5) ------------------------------------------------
    FrequentSet fk;
    {
      SpanLog::Scope s(log, "core.select_frequent", k, false);
      fk = select_frequent(*tree, min_count);
      s.work(n_cand);
    }

    // ---- chooser regret: time the kernel this level did not run ------------
    {
      SpanLog::Scope s(log, "shadow.chooser", k, false, /*excluded=*/true);
      if (tracked.empty()) tracked = distinct_items(prev.flat());
      KernelCostInputs auto_in = ci;
      auto_in.distinct_items = tracked.size();
      const CountKernel pick = resolve_count_kernel(CountKernel::Auto, auto_in);
      double flat_s = count_s;
      double vert_s = vertbuild_s + count_s;
      const std::uint64_t t0 = log.now();
      if (vertical) {
        const std::uint64_t sample =
            std::max<std::uint64_t>(1, db.size() / kShadowFlatSampleDiv);
        pool->run_spmd([&](std::uint32_t tid) {
          log.worker(tid, "shadow.count_range", k, [&] {
            const auto [b, e] = slot_range(static_cast<std::uint32_t>(sample),
                                           tid, threads);
            frozen->prepare_context(shadow[tid]);
            frozen->count_range(db, b, e, shadow[tid]);
            return std::uint64_t{e - b};
          });
        });
        flat_s = static_cast<double>(log.now() - t0) * 1e-9 *
                 static_cast<double>(db.size()) / static_cast<double>(sample);
      } else {
        std::optional<VerticalIndex> shadow_idx;
        shadow_idx.emplace(db, tracked, *arenas);
        pool->run_spmd([&](std::uint32_t tid) {
          log.worker(tid, "shadow.build_partition", k, [&] {
            shadow_idx->build_partition(db, tid, threads);
            return std::uint64_t{0};
          });
        });
        pool->run_spmd([&](std::uint32_t tid) {
          log.worker(tid, "shadow.count_slots_vertical", k, [&] {
            frozen->prepare_context(shadow[tid]);
            const auto [b, e] = slot_range(n_cand, tid, threads);
            frozen->count_slots_vertical(*shadow_idx, b, e, shadow[tid]);
            return std::uint64_t{e - b};
          });
        });
        vert_s = static_cast<double>(log.now() - t0) * 1e-9;
      }
      t.chooser_pick_s += pick == CountKernel::Vertical ? vert_s : flat_s;
      t.chooser_best_s += std::min(flat_s, vert_s);
    }

    const bool done = fk.empty();
    if (!done) levels.push_back(std::move(fk));
    if (done) break;
  }
  const std::uint64_t end_ns = log.now();
  pool.reset();

  double excluded_s = 0.0;
  for (const Span& sp : log.master()) {
    if (sp.excluded && sp.t0 >= start_ns && sp.t1 <= end_ns &&
        (sp.parent < 0 || !log.master()[sp.parent].excluded)) {
      excluded_s += sp.seconds();
    }
  }
  out.wall_s = static_cast<double>(end_ns - start_ns) * 1e-9 - excluded_s;
  out.matched = levels_equal(levels, reference.levels, &out.diagnostic);

  {
    SpanLog::Scope s(log, "core.generate_rules_parallel", 0, true);
    t.rules = generate_rules_parallel(reference, o.min_confidence, db.size(),
                                      o.threads)
                  .size();
    s.work(t.rules);
  }

  // ---- per-layer metrics ---------------------------------------------------
  auto& m = out.metrics;
  const double candgen_busy = busy_s(log, "core.generate_candidates");
  const double select_s = master_s(log, "core.select_frequent");
  const double remap_s = master_s(log, "hashtree.remap_depth_first");
  const double freeze_s = master_s(log, "hashtree.FrozenTree");
  const double flat_busy = busy_s(log, "hashtree.count_range");
  const double vert_busy = busy_s(log, "hashtree.count_slots_vertical");
  m["core.f1.s"] = master_s(log, "core.compute_f1");
  m["itemset.eqclass.s"] = master_s(log, "itemset.build_equivalence_classes") +
                           master_s(log, "itemset.generation_units");
  m["core.candgen.s"] = master_s(log, "phase.candgen");
  m["core.candgen.busy_sum_s"] = candgen_busy;
  m["core.candgen.ns_per_candidate"] =
      ratio(candgen_busy * 1e9, static_cast<double>(t.generated));
  m["core.candgen.imbalance"] =
      imbalance(log, "core.generate_candidates", threads);
  m["core.candgen.yield"] =
      ratio(static_cast<double>(t.generated),
            static_cast<double>(t.generated + t.pruned));
  m["core.select.s"] = select_s;
  m["core.select.ns_per_candidate"] =
      ratio(select_s * 1e9, static_cast<double>(t.candidates));
  m["core.rules.ns_per_rule"] =
      ratio(master_s(log, "core.generate_rules_parallel") * 1e9,
            static_cast<double>(t.rules));
  m["hashtree.remap.s"] = remap_s;
  m["hashtree.remap.ns_per_node"] =
      ratio(remap_s * 1e9, static_cast<double>(t.remap_nodes));
  m["hashtree.freeze.s"] = freeze_s;
  m["hashtree.freeze.ns_per_node"] =
      ratio(freeze_s * 1e9, static_cast<double>(t.frozen_nodes));
  m["hashtree.count_flat.s"] = master_s(log, "phase.count_flat");
  m["hashtree.count_flat.ns_per_txn"] =
      ratio(flat_busy * 1e9,
            static_cast<double>(db.size()) * static_cast<double>(t.flat_levels));
  m["hashtree.count_flat.imbalance"] =
      imbalance(log, "hashtree.count_range", threads);
  m["hashtree.count_flat.hit_rate"] =
      ratio(static_cast<double>(t.hits),
            static_cast<double>(t.containment_checks));
  m["hashtree.vertbuild.s"] = master_s(log, "phase.vertbuild");
  m["hashtree.vertbuild.ns_per_word"] =
      ratio(busy_s(log, "hashtree.build_partition") * 1e9,
            static_cast<double>(t.vertical_words));
  m["hashtree.count_vertical.s"] = master_s(log, "phase.count_vertical");
  m["hashtree.count_vertical.ns_per_candidate"] =
      ratio(vert_busy * 1e9, static_cast<double>(t.vertical_slots));
  m["hashtree.reduce.s"] = master_s(log, "phase.reduce");
  m["hashtree.chooser.regret_pct"] =
      (ratio(t.chooser_pick_s, t.chooser_best_s) - 1.0) * 100.0;
  m["alloc.tree_mb"] = static_cast<double>(t.tree_bytes_max) / 1e6;

  // Single-threaded time: master spans that do not fan out to the pool,
  // counted once (not again inside an enclosing serial span).
  double serial_s = 0.0;
  for (const Span& sp : log.master()) {
    if (sp.excluded || sp.parallel || sp.t0 < start_ns || sp.t1 > end_ns) {
      continue;
    }
    if (sp.parent >= 0 && !log.master()[sp.parent].parallel) continue;
    serial_s += sp.seconds();
  }
  m["parallel.serial_fraction"] = ratio(serial_s, out.wall_s);

  if (t.flat_levels == 0) {
    for (const char* name :
         {"hashtree.count_flat.s", "hashtree.count_flat.ns_per_txn",
          "hashtree.count_flat.imbalance", "hashtree.count_flat.hit_rate"}) {
      out.not_applicable.emplace_back(name);
    }
  }
  if (t.vertical_slots == 0) {
    for (const char* name :
         {"hashtree.vertbuild.s", "hashtree.vertbuild.ns_per_word",
          "hashtree.count_vertical.s",
          "hashtree.count_vertical.ns_per_candidate"}) {
      out.not_applicable.emplace_back(name);
    }
  }
  return out;
}

double spmd_round_trip_us(std::uint32_t threads, int reps) {
  ThreadPool pool(threads);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    pool.run_spmd([](std::uint32_t) {});
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  return median(std::move(us));
}

void SpanLog::save_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace '" + path + "'");
  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const Span& sp, int track) {
    os << (first ? "" : ",") << "\n{\"name\":\"" << sp.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << track
       << ",\"ts\":" << static_cast<double>(sp.t0) / 1e3
       << ",\"dur\":" << static_cast<double>(sp.t1 - sp.t0) / 1e3
       << ",\"args\":{\"k\":" << sp.k << ",\"work\":" << sp.work
       << ",\"excluded\":" << (sp.excluded ? "true" : "false") << "}}";
    first = false;
  };
  for (const Span& sp : master_) emit(sp, 0);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    for (const Span& sp : workers_[w]) emit(sp, static_cast<int>(w) + 1);
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write trace '" + path + "'");
}

}  // namespace smpbench
