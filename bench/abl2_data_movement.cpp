// Ablation A2: data-movement cost of elasticity.
//
// The balancement quality of figures 4-9 is only half the story for a
// real deployment: every rebalance moves stored keys. This harness
// loads a kv::Store with synthetic keys, grows the cluster node by
// node, and reports the keys moved per join for every placement scheme
// behind the PlacementBackend concept: the local approach, the global
// approach, Consistent Hashing (whose minimal-disruption property is
// the classic reference point), weighted rendezvous (HRW), jump
// consistent hash, maglev lookup tables, and CH with bounded loads.
//
// All schemes run through the same backend-generic movement loop
// (sim::run_movement_growth over kv::Store<Backend>); they differ only
// in the store's backend type, and every number comes from the same
// unified MigrationStats surface.
//
// Expected shape: most schemes move O(K / N) keys per join (a fair
// share); CH and jump move slightly less than the fair share on
// average (they only steal what the new node ends up owning), the
// model's split waves add rebucketing work but no extra cross-node
// movement, maglev's table-wide repopulation and bounded CH's cap
// reshuffling add overhead above the fair share.

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "kv/store.hpp"
#include "sim/scenario.hpp"
#include "support/figure.hpp"

int main(int argc, char** argv) {
  using cobalt::bench::FigureHarness;
  using cobalt::bench::Series;

  FigureHarness fig(argc, argv, "abl2",
                    "Ablation A2: keys moved per join (all seven "
                    "placement schemes)",
                    /*default_runs=*/1, /*default_steps=*/256);
  fig.print_banner();

  const std::uint64_t key_count = fig.args().get_uint("keys", 200000);
  // --schemes=local,ch,... restricts the comparison to a subset (the
  // CI smoke uses --schemes=local at 8192 joins to exercise the local
  // approach's group-split pressure through the store hot path
  // without paying for the table-driven schemes at that scale).
  // Parsing and typo validation live in bench::Options.
  const auto enabled = [&](const std::string& scheme) {
    return fig.options().scheme_enabled(scheme);
  };
  const std::size_t ch_k = fig.args().get_uint("ch-partitions", 32);
  const auto grid_bits =
      static_cast<unsigned>(fig.args().get_uint("grid-bits", 14));
  const double epsilon = fig.args().get_double("epsilon", 0.1);

  // Key population: synthetic URLs (exercises the real hash path).
  std::vector<std::string> keys;
  keys.reserve(key_count);
  for (std::uint64_t i = 0; i < key_count; ++i) {
    keys.push_back("http://host" + std::to_string(i % 977) + "/object/" +
                   std::to_string(i));
  }

  cobalt::dht::Config config;
  config.pmin = 32;
  config.vmin = 32;
  config.seed = fig.seed();

  // The same scenario loop, seven backends.
  cobalt::kv::KvStore local({config, 1});
  cobalt::kv::GlobalKvStore global({config, 1});
  cobalt::kv::ChKvStore ch({fig.seed(), ch_k});
  cobalt::kv::HrwKvStore hrw({fig.seed(), grid_bits});
  cobalt::kv::JumpKvStore jump({fig.seed(), grid_bits});
  cobalt::kv::MaglevKvStore maglev({fig.seed(), grid_bits});
  cobalt::kv::BoundedChKvStore bounded(
      {fig.seed(), ch_k, epsilon, grid_bits});
  const auto run_scheme = [&](const std::string& scheme, auto& store) {
    return enabled(scheme)
               ? cobalt::sim::run_movement_growth(store, keys, fig.steps())
               : std::vector<double>{};
  };
  const auto local_moved = run_scheme("local", local);
  const auto global_moved = run_scheme("global", global);
  const auto ch_moved = run_scheme("ch", ch);
  const auto hrw_moved = run_scheme("hrw", hrw);
  const auto jump_moved = run_scheme("jump", jump);
  const auto maglev_moved = run_scheme("maglev", maglev);
  const auto bounded_moved = run_scheme("bounded-ch", bounded);

  std::vector<double> fair_share;
  std::vector<double> xs;
  for (std::size_t n = 2; n <= fig.steps(); ++n) {
    xs.push_back(static_cast<double>(n));
    fair_share.push_back(static_cast<double>(key_count) /
                         static_cast<double>(n));
  }

  std::vector<Series> series;
  if (enabled("local")) series.push_back(Series{"local", local_moved});
  if (enabled("global")) series.push_back(Series{"global", global_moved});
  if (enabled("ch")) series.push_back(Series{"CH", ch_moved});
  if (enabled("hrw")) series.push_back(Series{"HRW", hrw_moved});
  if (enabled("jump")) series.push_back(Series{"jump", jump_moved});
  if (enabled("maglev")) series.push_back(Series{"maglev", maglev_moved});
  if (enabled("bounded-ch")) {
    series.push_back(Series{"bounded CH", bounded_moved});
  }
  series.push_back(Series{"fair share K/N", fair_share});
  fig.print_table(xs, series, xs.size() / 16, /*percent=*/false, "nodes");
  fig.print_chart(xs, series, "nodes joined", "keys moved on join");
  fig.write_csv(xs, series, "nodes");

  // --- checks -------------------------------------------------------
  const auto tail_ratio = [&](const std::vector<double>& moved) {
    double m = 0.0;
    double f = 0.0;
    for (std::size_t i = moved.size() - moved.size() / 4; i < moved.size();
         ++i) {
      m += moved[i];
      f += fair_share[i];
    }
    return m / f;
  };
  const auto check_fair = [&](const std::string& label,
                              const std::vector<double>& moved, double lo,
                              double hi) {
    const double ratio = tail_ratio(moved);
    fig.check(ratio > lo && ratio < hi,
              label + " moves a fair share per join (ratio " +
                  cobalt::format_fixed(ratio, 2) + "x of K/N)");
  };
  if (enabled("local")) check_fair("local approach", local_moved, 0.3, 3.0);
  if (enabled("global")) {
    check_fair("global approach", global_moved, 0.3, 3.0);
  }
  if (enabled("ch")) check_fair("CH", ch_moved, 0.3, 3.0);
  if (enabled("hrw")) check_fair("HRW", hrw_moved, 0.3, 3.0);
  if (enabled("jump")) check_fair("jump", jump_moved, 0.3, 3.0);
  // Maglev repopulates its whole table per join and bounded CH
  // reshuffles overflow cells as the caps shrink: both may exceed the
  // fair share, but must stay within a small multiple of it.
  if (enabled("maglev")) check_fair("maglev", maglev_moved, 0.3, 8.0);
  if (enabled("bounded-ch")) {
    check_fair("bounded CH", bounded_moved, 0.3, 8.0);
  }
  // Minimal disruption: a jump join only steals what the new tail
  // bucket ends up owning, so it sits at (or below) the fair share.
  if (enabled("jump")) {
    fig.check(tail_ratio(jump_moved) < 1.5,
              "jump stays near the minimal-disruption bound");
  }
  // One vnode per node: every DHT handover crosses nodes, so the two
  // movement counters must agree; CH never re-buckets.
  if (enabled("local")) {
    fig.check(local.stats().relocation.keys_moved_across_nodes ==
                  local.stats().relocation.keys_moved_total,
              "local: all movement crosses nodes at one vnode/node");
  }
  if (enabled("ch")) {
    fig.check(ch.stats().relocation.keys_rebucketed == 0,
              "CH never re-buckets keys");
  }
  // The grid-backed schemes report plain relocations only.
  if (enabled("hrw") && enabled("jump") && enabled("maglev") &&
      enabled("bounded-ch")) {
    fig.check(hrw.stats().relocation.keys_rebucketed == 0 &&
                  jump.stats().relocation.keys_rebucketed == 0 &&
                  maglev.stats().relocation.keys_rebucketed == 0 &&
                  bounded.stats().relocation.keys_rebucketed == 0,
              "HRW, jump, maglev and bounded CH never re-bucket keys");
  }
  // Integrity: no keys lost by any enabled store.
  bool none_lost = true;
  if (enabled("local")) none_lost = none_lost && local.size() == key_count;
  if (enabled("global")) none_lost = none_lost && global.size() == key_count;
  if (enabled("ch")) none_lost = none_lost && ch.size() == key_count;
  if (enabled("hrw")) none_lost = none_lost && hrw.size() == key_count;
  if (enabled("jump")) none_lost = none_lost && jump.size() == key_count;
  if (enabled("maglev")) none_lost = none_lost && maglev.size() == key_count;
  if (enabled("bounded-ch")) {
    none_lost = none_lost && bounded.size() == key_count;
  }
  fig.check(none_lost, "no keys lost through " +
                           std::to_string(fig.steps()) + " joins");

  return fig.exit_code();
}
