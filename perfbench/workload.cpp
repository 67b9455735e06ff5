#include "workload.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "util/rng.hpp"

namespace smpbench {

using smpmine::CountKernel;
using smpmine::item_t;

namespace {

smpmine::QuestParams quest(const char* name) {
  smpmine::QuestParams p = *smpmine::QuestParams::from_name(name);
  p.seed = kDefaultSeed;
  return p;
}

smpmine::QuestParams deep_quest() {
  smpmine::QuestParams p;
  p.num_transactions = 500'000;
  p.avg_transaction_len = 12.0;
  p.avg_pattern_len = 6.0;
  p.num_patterns = 10;
  p.num_items = 30;
  p.seed = kDefaultSeed;
  return p;
}

// The seed's two streams: one for the item relabeling, one for the
// transaction order.
constexpr std::uint64_t kOrderSalt = 0x6f72646572ULL;

void fnv(std::uint64_t& h, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) {
    h ^= (v >> (8 * b)) & 0xFFu;
    h *= 0x100000001b3ULL;
  }
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Oracles pinned with `smpbench --mode pin` (pointer kernel at P=1,
  // cross-checked against flat and vertical at P=4).
  static const std::vector<Workload> table = {
      {"quest-count",
       quest("T15.I4.D100K"), 0.005, CountKernel::Flat,
       {0xd673f2888c09f008ULL, 5131, 34595},
       {0x8c79764e9a5fbbfcULL, 6279, 57644}},
      {"quest-build",
       quest("T5.I2.D100K"), 0.001, CountKernel::Flat,
       {0xec0102ac19ae2723ULL, 4508, 13848},
       {0x4c10cb59bc0cd76aULL, 4601, 16525}},
      {"deep-vertical",
       deep_quest(), 0.02, CountKernel::Auto,
       {0x3ee38a080103b579ULL, 32573, 397775},
       {0xb0ab17e9797595afULL, 33572, 404149}},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

smpmine::MinerOptions miner_options(const Workload& w, std::uint32_t threads) {
  smpmine::MinerOptions o;
  o.min_support = w.support;
  o.min_confidence = 0.8;
  o.threads = threads;
  o.placement = smpmine::PlacementPolicy::LcaGpp;
  o.balance = smpmine::PartitionScheme::Bitonic;
  o.hash_scheme = smpmine::HashScheme::Indirection;
  o.subset_check = smpmine::SubsetCheck::FrameLocal;
  o.db_partition = smpmine::DbPartition::Block;
  o.count_kernel = w.kernel;
  o.validate();
  return o;
}

std::vector<item_t> base_labels(const Workload& w, std::uint64_t seed) {
  std::vector<item_t> to_base(w.quest.num_items);
  std::iota(to_base.begin(), to_base.end(), item_t{0});
  smpmine::Rng rng(seed);
  for (std::size_t i = to_base.size(); i > 1; --i) {
    std::swap(to_base[i - 1], to_base[rng.uniform(i)]);
  }
  return to_base;
}

SeededInstance make_instance(const Workload& w, std::uint64_t seed,
                             bool tiny) {
  const smpmine::QuestParams params =
      tiny ? smpmine::scaled(w.quest, kTinyScale) : w.quest;
  const smpmine::Database base = smpmine::generate_quest(params);

  SeededInstance out;
  out.to_base = base_labels(w, seed);
  std::vector<item_t> to_seeded(out.to_base.size());
  for (std::size_t i = 0; i < out.to_base.size(); ++i) {
    to_seeded[out.to_base[i]] = static_cast<item_t>(i);
  }

  std::vector<std::size_t> order(base.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  smpmine::Rng rng(seed ^ kOrderSalt);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform(i)]);
  }

  out.db.reserve(base.size(), base.total_items());
  std::vector<item_t> txn;
  for (const std::size_t t : order) {
    txn.clear();
    for (const item_t item : base.transaction(t)) {
      txn.push_back(to_seeded[item]);
    }
    out.db.add_transaction(txn);
  }
  return out;
}

Oracle oracle_of(const std::vector<smpmine::FrequentSet>& levels,
                 const std::vector<item_t>& to_base) {
  Oracle o;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::vector<item_t> mapped;
  std::vector<std::uint32_t> idx;
  for (const smpmine::FrequentSet& level : levels) {
    const std::size_t k = level.k();
    const std::size_t n = level.size();
    o.frequent += n;
    mapped.resize(n * k);
    for (std::size_t i = 0; i < n; ++i) {
      const auto items = level.itemset(i);
      item_t* rec = mapped.data() + i * k;
      for (std::size_t j = 0; j < k; ++j) {
        rec[j] = items[j] < to_base.size() ? to_base[items[j]] : items[j];
      }
      std::sort(rec, rec + k);
    }
    idx.resize(n);
    std::iota(idx.begin(), idx.end(), 0u);
    std::sort(idx.begin(), idx.end(), [&](std::uint32_t a, std::uint32_t b) {
      return std::lexicographical_compare(
          mapped.begin() + a * k, mapped.begin() + (a + 1) * k,
          mapped.begin() + b * k, mapped.begin() + (b + 1) * k);
    });
    fnv(h, static_cast<std::uint32_t>(k));
    for (const std::uint32_t i : idx) {
      for (std::size_t j = 0; j < k; ++j) fnv(h, mapped[i * k + j]);
      fnv(h, level.count(i));
    }
  }
  o.digest = h;
  return o;
}

}  // namespace smpbench
