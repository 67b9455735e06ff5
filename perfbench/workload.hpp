// The benchmark's workloads, their seeded inputs and their pinned oracles.
//
// Each workload is one Quest instance generated at the pinned Quest seed
// 1996. The benchmark seed does not redraw it: it picks a random item
// relabeling and a random transaction order of that instance. Every seed
// therefore has the same itemset structure (same |C(k)|, |F(k)| and rule
// count, so runs on different seeds measure the same amount of work), while
// item ids, hash-tree layout and database partitions differ per seed. The
// oracle for any seed is the pinned digest of the instance: a mined result
// is mapped back through the inverse relabeling and must hash to it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "data/database.hpp"
#include "data/quest_gen.hpp"
#include "itemset/frequent_set.hpp"

namespace smpbench {

/// What a correct mine of one workload returns, pinned from the reference
/// miner (`smpbench --mode pin`).
struct Oracle {
  std::uint64_t digest = 0;    ///< FNV-1a over sorted (itemset, support) pairs
  std::uint64_t frequent = 0;  ///< total frequent itemsets, all levels
  std::uint64_t rules = 0;     ///< rules at the workload's confidence
};

struct Workload {
  std::string_view name;
  smpmine::QuestParams quest;  ///< full scale, Quest seed 1996
  double support = 0.0;
  smpmine::CountKernel kernel = smpmine::CountKernel::Flat;
  Oracle full;
  Oracle tiny;  ///< the smoke mode's scaled-down instance
};

/// Transactions of the smoke mode's instance, as a share of the full D.
inline constexpr double kTinyScale = 0.05;
inline constexpr std::uint64_t kDefaultSeed = 1996;

const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

/// The CLI's defaults (LCA-GPP, bitonic, indirection, frame-local, block
/// partition, confidence 0.8) with the workload's support and kernel.
smpmine::MinerOptions miner_options(const Workload& w, std::uint32_t threads);

/// The seeded view of a workload: relabeled items and shuffled transaction
/// order. `to_base[i]` maps relabeled item i back to its Quest id.
struct SeededInstance {
  smpmine::Database db;
  std::vector<smpmine::item_t> to_base;
};

/// Item relabeling for (workload, seed); cheap, so the runner recomputes it
/// instead of reading it from the generator.
std::vector<smpmine::item_t> base_labels(const Workload& w, std::uint64_t seed);
SeededInstance make_instance(const Workload& w, std::uint64_t seed, bool tiny);

/// Oracle fields of a mined result, with items mapped back through
/// `to_base`. `rules` is left 0.
Oracle oracle_of(const std::vector<smpmine::FrequentSet>& levels,
                 const std::vector<smpmine::item_t>& to_base);

}  // namespace smpbench
