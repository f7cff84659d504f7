// Ablation A8: replication - correlated failures and rolling upgrades
// over every placement scheme.
//
// The paper's relocation accounting models the data movement of
// membership change; replication is what makes that movement matter in
// a deployment: a failure is only survivable while some replica lives,
// and repairing the replica sets is real network traffic on top of
// primary relocation. This harness compares all seven schemes at
// replication factors k in {1, 2, 3} under two scenarios:
//
//   * correlated failure (sim::run_correlated_failure): a random rack
//     of nodes crashes at once; measured: keys lost (the window k
//     exists to close) and the re-replication mass of the repair;
//   * rolling upgrade (sim::run_rolling_upgrade): every node is
//     gracefully drained and replaced in sequence; measured: the
//     re-replication mass of the sweep (lost keys are zero by
//     construction - drains are graceful).
//
// Every scheme runs the same store-level loops over kv::Store<Backend>;
// a scheme is one backend factory, exactly as in fig9/abl2/abl7.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "kv/store.hpp"
#include "sim/scenario.hpp"
#include "support/figure.hpp"

namespace {

using cobalt::bench::FigureHarness;
using cobalt::bench::Series;
using cobalt::placement::ReplicationSpec;

constexpr std::size_t kMaxReplication = 3;

/// Averaged outcome of one (scheme, k) cell of the comparison matrix.
struct CellOutcome {
  double lost_fraction = 0.0;      ///< keys lost / keys, rack failure
  double failure_rereplication = 0.0;  ///< repair copies / key
  double upgrade_rereplication = 0.0;  ///< sweep copies / key
  double refused_fraction = 0.0;   ///< refused removals / attempts
};

/// The shared scenario pair of this ablation: fig.runs() correlated
/// failures and rolling upgrades of whatever store `make(seed, k)`
/// builds.
template <typename MakeStore>
CellOutcome run_cell(FigureHarness& fig, std::uint64_t tag,
                     std::size_t population, std::size_t rack,
                     const std::vector<std::string>& keys, std::size_t k,
                     MakeStore make) {
  CellOutcome out;
  const auto key_count = static_cast<double>(keys.size());
  for (std::size_t run = 0; run < fig.runs(); ++run) {
    const std::uint64_t seed =
        cobalt::derive_seed(fig.seed(), tag * 8 + k, run);

    auto failure_store = make(seed, k);
    const auto failure = cobalt::sim::run_correlated_failure(
        failure_store, population, rack, keys, seed);
    out.lost_fraction += static_cast<double>(failure.keys_lost) / key_count;
    out.failure_rereplication +=
        static_cast<double>(failure.keys_rereplicated) / key_count;

    auto upgrade_store = make(seed, k);
    const auto upgrade =
        cobalt::sim::run_rolling_upgrade(upgrade_store, population, keys);
    out.upgrade_rereplication +=
        static_cast<double>(upgrade.keys_rereplicated) / key_count;
    out.refused_fraction +=
        static_cast<double>(failure.refused + upgrade.refused) /
        static_cast<double>(rack + population);
  }
  const double n = static_cast<double>(fig.runs());
  out.lost_fraction /= n;
  out.failure_rereplication /= n;
  out.upgrade_rereplication /= n;
  out.refused_fraction /= n;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FigureHarness fig(argc, argv, "abl8",
                    "Ablation A8: correlated failures and rolling upgrades "
                    "under replication (all seven placement schemes, "
                    "k = 1..3)",
                    /*default_runs=*/3, /*default_steps=*/48);
  fig.print_banner();

  const std::size_t population = fig.steps();
  const std::size_t rack = fig.args().get_uint("rack", 3);
  const std::size_t key_count = fig.args().get_uint("keys", 4000);
  const std::uint64_t pmin = fig.args().get_uint("pmin", 32);
  const std::uint64_t vmin = fig.args().get_uint("vmin", 8);
  const auto grid_bits =
      static_cast<unsigned>(fig.args().get_uint("grid-bits", 14));
  const double epsilon = fig.args().get_double("epsilon", 0.1);

  std::vector<std::string> keys;
  keys.reserve(key_count);
  for (std::size_t i = 0; i < key_count; ++i) {
    keys.push_back("key-" + std::to_string(i));
  }

  cobalt::TextTable table(
      {"scheme", "k", "keys lost (%)", "failure re-repl (/key)",
       "upgrade re-repl (/key)", "refused (%)"});

  // One factory per scheme; each builds a replicated store at factor k.
  const auto local_factory = [&](std::uint64_t seed, std::size_t k) {
    cobalt::dht::Config config;
    config.pmin = pmin;
    config.vmin = vmin;
    config.seed = seed;
    return cobalt::kv::KvStore({config, 1}, ReplicationSpec{k});
  };
  const auto global_factory = [&](std::uint64_t seed, std::size_t k) {
    cobalt::dht::Config config;
    config.pmin = pmin;
    config.vmin = 1;
    config.seed = seed;
    return cobalt::kv::GlobalKvStore({config, 1}, ReplicationSpec{k});
  };
  const auto ch_factory = [&](std::uint64_t seed, std::size_t k) {
    return cobalt::kv::ChKvStore({seed, static_cast<std::size_t>(pmin)},
                                 ReplicationSpec{k});
  };
  const auto hrw_factory = [&](std::uint64_t seed, std::size_t k) {
    return cobalt::kv::HrwKvStore({seed, grid_bits}, ReplicationSpec{k});
  };
  const auto jump_factory = [&](std::uint64_t seed, std::size_t k) {
    return cobalt::kv::JumpKvStore({seed, grid_bits}, ReplicationSpec{k});
  };
  const auto maglev_factory = [&](std::uint64_t seed, std::size_t k) {
    return cobalt::kv::MaglevKvStore({seed, grid_bits}, ReplicationSpec{k});
  };
  const auto bounded_factory = [&](std::uint64_t seed, std::size_t k) {
    return cobalt::kv::BoundedChKvStore(
        {seed, static_cast<std::size_t>(pmin), epsilon, grid_bits},
        ReplicationSpec{k});
  };

  // The full matrix, one row per (scheme, k); the CSV gets one series
  // per (scheme, metric) over the k axis.
  std::vector<Series> csv_series;
  std::vector<double> ks;
  for (std::size_t k = 1; k <= kMaxReplication; ++k) {
    ks.push_back(static_cast<double>(k));
  }

  const auto run_scheme = [&](const std::string& scheme, std::uint64_t tag,
                              const auto& factory) {
    std::vector<CellOutcome> cells;
    // --schemes=... skips the others entirely; their checks are
    // skipped too (empty cell vectors below).
    if (!fig.options().scheme_enabled(scheme)) return cells;
    Series lost{scheme + " lost (%)", {}};
    Series failure{scheme + " failure re-repl (/key)", {}};
    Series upgrade{scheme + " upgrade re-repl (/key)", {}};
    for (std::size_t k = 1; k <= kMaxReplication; ++k) {
      const CellOutcome cell =
          run_cell(fig, tag, population, rack, keys, k, factory);
      table.add_row({scheme + " k=" + std::to_string(k),
                     std::to_string(k),
                     cobalt::format_fixed(cell.lost_fraction * 100, 2),
                     cobalt::format_fixed(cell.failure_rereplication, 3),
                     cobalt::format_fixed(cell.upgrade_rereplication, 3),
                     cobalt::format_fixed(cell.refused_fraction * 100, 1)});
      lost.y.push_back(cell.lost_fraction * 100);
      failure.y.push_back(cell.failure_rereplication);
      upgrade.y.push_back(cell.upgrade_rereplication);
      cells.push_back(cell);
    }
    csv_series.push_back(std::move(lost));
    csv_series.push_back(std::move(failure));
    csv_series.push_back(std::move(upgrade));
    return cells;
  };

  const auto local = run_scheme("local", 80, local_factory);
  const auto global = run_scheme("global", 81, global_factory);
  const auto ch = run_scheme("ch", 82, ch_factory);
  const auto hrw = run_scheme("hrw", 83, hrw_factory);
  const auto jump = run_scheme("jump", 84, jump_factory);
  const auto maglev = run_scheme("maglev", 85, maglev_factory);
  const auto bounded = run_scheme("bounded-ch", 86, bounded_factory);

  std::cout << table.render();
  fig.write_csv(ks, csv_series, "replicas");

  // The claims of the ablation, per scheme. Index i is k = i + 1.
  struct Named {
    std::string name;
    const std::vector<CellOutcome>* cells;
  };
  const std::vector<Named> schemes = {
      {"local", &local},   {"global", &global}, {"ch", &ch},
      {"hrw", &hrw},       {"jump", &jump},     {"maglev", &maglev},
      {"bounded-ch", &bounded}};

  for (const auto& [name, cells] : schemes) {
    if (cells->empty()) continue;  // skipped via --schemes
    // k = 1 means no redundancy: a rack failure must lose keys. (The
    // local approach may refuse enough of the rack to dodge losses at
    // tiny scale; its check still holds at defaults.)
    fig.check((*cells)[0].lost_fraction > 0.0,
              name + ": an unreplicated rack failure loses keys (" +
                  cobalt::format_fixed((*cells)[0].lost_fraction * 100, 2) +
                  "%)");
    // Replication closes the window: each extra copy shrinks losses by
    // roughly the rack-fraction factor; require at least a halving.
    fig.check((*cells)[1].lost_fraction <
                  0.5 * (*cells)[0].lost_fraction + 1e-9,
              name + ": k=2 at least halves correlated-failure loss (" +
                  cobalt::format_fixed((*cells)[1].lost_fraction * 100, 2) +
                  "% vs " +
                  cobalt::format_fixed((*cells)[0].lost_fraction * 100, 2) +
                  "%)");
    fig.check((*cells)[2].lost_fraction <=
                  (*cells)[1].lost_fraction + 1e-9,
              name + ": loss keeps shrinking at k=3");
    // Redundancy is not free: repairing a richer replica set costs
    // more copies, in both scenarios.
    fig.check((*cells)[2].upgrade_rereplication >
                  (*cells)[0].upgrade_rereplication,
              name + ": upgrade repair mass grows with k (" +
                  cobalt::format_fixed((*cells)[2].upgrade_rereplication, 2) +
                  " vs " +
                  cobalt::format_fixed((*cells)[0].upgrade_rereplication, 2) +
                  " copies/key)");
    fig.check((*cells)[2].failure_rereplication >
                  (*cells)[0].failure_rereplication,
              name + ": failure repair mass grows with k");
  }

  FigureHarness::note(
      "rolling upgrades lose zero keys at every k by construction: "
      "drains are graceful, so the departing node is always a copy "
      "source; only correlated crashes open a data-loss window");
  FigureHarness::note(
      "the minimal-disruption schemes (ch, local, global) repair only "
      "the failed mass; the table-reshuffling schemes (maglev, jump at "
      "non-tail removals) also re-replicate survivor keys whose replica "
      "sets the reshuffle touched");

  return fig.exit_code();
}
