// Integration tests: cross-module scenarios exercising the full stack
// (balancer + invariants + KV + protocol traces + harness) the way the
// examples and benches do.

#include <gtest/gtest.h>

#include <string>

#include "ch/ring.hpp"
#include "cluster/capacity.hpp"
#include "cluster/protocol_sim.hpp"
#include "dht/invariants.hpp"
#include "kv/store.hpp"
#include "sim/growth.hpp"
#include "sim/theta.hpp"

namespace cobalt {
namespace {

dht::Config cfg(std::uint64_t pmin, std::uint64_t vmin, std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

TEST(EndToEnd, PaperScaleGrowthKeepsEveryInvariant) {
  // The exact figure-4 configuration, single run, full invariant check
  // at the paper's checkpoints.
  dht::LocalDht dht(cfg(32, 32, 99));
  const auto snode = dht.add_snode();
  for (int v = 1; v <= 1024; ++v) {
    dht.create_vnode(snode);
    if (v % 128 == 0 || v == 1 || v == 65) {
      ASSERT_NO_THROW(dht::check_invariants(dht)) << "V = " << v;
    }
  }
  EXPECT_EQ(dht.vnode_count(), 1024u);
  // The paper's plateau: sigma(Qv) around 10% for (32, 32).
  EXPECT_GT(dht.sigma_qv(), 0.02);
  EXPECT_LT(dht.sigma_qv(), 0.25);
  // Greal lands in the expected band around Gideal = 16.
  EXPECT_GE(dht.group_count(), 16u);
  EXPECT_LE(dht.group_count(), 32u);
}

TEST(EndToEnd, KvStoreSurvivesAggressiveElasticityWithData) {
  kv::KvStore store({cfg(8, 8, 123), 2});

  // Interleave writes, growth, reads and removals.
  std::vector<placement::NodeId> nodes;
  nodes.push_back(store.add_node());
  int next_key = 0;
  for (int round = 0; round < 12; ++round) {
    for (int k = 0; k < 500; ++k) {
      store.put("it/" + std::to_string(next_key),
                std::to_string(next_key));
      ++next_key;
    }
    for (int j = 0; j < 2; ++j) nodes.push_back(store.add_node());
    if (round % 3 == 2) {
      // A leave mid-traffic (the local approach may refuse; the node
      // then simply stays).
      if (store.remove_node(nodes.front())) nodes.erase(nodes.begin());
    }
    // Spot-check reads of old and new keys every round.
    for (int probe = 0; probe < next_key; probe += 97) {
      ASSERT_EQ(store.get("it/" + std::to_string(probe)),
                std::to_string(probe))
          << "round " << round;
    }
  }
  ASSERT_NO_THROW(dht::check_invariants(store.backend().dht(),
                                        /*creation_only=*/false));
  EXPECT_EQ(store.size(), static_cast<std::size_t>(next_key));
}

TEST(EndToEnd, OneScenarioLoopDrivesEveryStoreBackend) {
  // The store-level counterpart of figure 9: the same loop loads,
  // grows and audits a store; only the backend differs.
  const auto audit = [](auto& store) {
    for (int n = 0; n < 3; ++n) store.add_node();
    for (int i = 0; i < 2000; ++i) {
      store.put("x/" + std::to_string(i), std::to_string(i));
    }
    for (int n = 0; n < 5; ++n) store.add_node();
    std::size_t resident = 0;
    for (const auto c : store.keys_per_node()) resident += c;
    EXPECT_EQ(resident, 2000u);
    EXPECT_EQ(store.size(), 2000u);
    EXPECT_GT(store.stats().relocation.keys_moved_across_nodes, 0u);
    return store.backend().sigma();
  };
  kv::KvStore local({cfg(8, 8, 31), 1});
  kv::GlobalKvStore global({cfg(8, 1, 31), 1});
  kv::ChKvStore ch({31, 16});
  EXPECT_LT(audit(local), 1.0);
  EXPECT_LT(audit(global), 1.0);
  EXPECT_LT(audit(ch), 1.0);
}

TEST(EndToEnd, GrowthHarnessAgreesWithDirectSimulation) {
  // sim::run_local_growth must be exactly a LocalDht growth loop.
  const auto series =
      sim::run_local_growth(cfg(16, 8, 7), 200, sim::Metric::kSigmaQv);
  dht::LocalDht dht(cfg(16, 8, 7));
  const auto snode = dht.add_snode();
  for (int v = 0; v < 200; ++v) dht.create_vnode(snode);
  EXPECT_DOUBLE_EQ(series.back(), dht.sigma_qv());
}

TEST(EndToEnd, ThetaPipelineReproducesTheParameterChoice) {
  // A reduced-scale figure-5 pipeline (fewer runs): theta still selects
  // an interior Vmin, demonstrating the quality/cost trade-off.
  const std::vector<std::uint64_t> vmins{8, 16, 32, 64, 128};
  std::vector<double> sigmas;
  for (const auto vmin : vmins) {
    const auto make = [&, vmin](std::uint64_t seed) {
      const auto s = sim::run_local_growth(cfg(vmin, vmin, seed), 1024,
                                           sim::Metric::kSigmaQv);
      return std::vector<double>{s.back()};
    };
    sigmas.push_back(sim::average_runs(10, 77, vmin, make)[0]);
  }
  const auto points = sim::compute_theta(vmins, sigmas, 0.5);
  const auto best = sim::argmin_theta(points);
  EXPECT_GT(best.vmin, 8u);
  EXPECT_LT(best.vmin, 128u);
}

TEST(EndToEnd, ProtocolTraceMatchesBalancerGroupStructure) {
  // The DES trace's domain count must equal the balancer's slot count,
  // and the last rounds' participants must match live group spans.
  const auto trace = cluster::record_local_trace(cfg(8, 8, 5), 16, 200);
  dht::LocalDht dht(cfg(8, 8, 5));
  for (int s = 0; s < 16; ++s) dht.add_snode();
  for (int v = 0; v < 200; ++v) {
    dht.create_vnode(static_cast<dht::SNodeId>(v % 16));
  }
  EXPECT_EQ(trace.domains, dht.group_slot_count());
  const auto result = cluster::replay_trace(trace, cluster::NetworkModel{});
  EXPECT_GT(result.concurrency, 1.0);
}

TEST(EndToEnd, HeterogeneousSharesTrackCapacity) {
  const auto capacities =
      cluster::make_capacities(cluster::CapacityProfile::kTwoGenerations, 6);
  dht::LocalDht dht(cfg(16, 16, 31));
  double total_capacity = 0.0;
  for (const double c : capacities) total_capacity += c;
  for (std::size_t s = 0; s < capacities.size(); ++s) {
    const auto id = dht.add_snode(capacities[s]);
    const std::size_t count = cluster::vnodes_for_capacity(8, capacities[s]);
    for (std::size_t v = 0; v < count; ++v) dht.create_vnode(id);
  }
  dht::check_invariants(dht);
  // Per-snode quota approximates capacity share.
  for (std::size_t s = 0; s < capacities.size(); ++s) {
    Dyadic quota;
    for (const auto v : dht.snode(static_cast<dht::SNodeId>(s)).vnodes) {
      quota += dht.exact_quota(v);
    }
    const double expected = capacities[s] / total_capacity;
    EXPECT_NEAR(quota.to_double(), expected, expected * 0.35)
        << "snode " << s;
  }
}

TEST(EndToEnd, DeterminismAcrossTheWholeStack) {
  // Same seeds => identical balancer state, KV placement, CH ring and
  // protocol replay, across independent constructions.
  const auto run_once = [] {
    kv::KvStore store({cfg(8, 8, 2024), 1});
    store.add_node();
    for (int i = 0; i < 1000; ++i) store.put("d" + std::to_string(i), "v");
    for (int i = 0; i < 10; ++i) store.add_node();
    const auto keys = store.keys_per_node();
    const auto trace = cluster::record_local_trace(cfg(8, 8, 1), 8, 100);
    const auto replay = cluster::replay_trace(trace, cluster::NetworkModel{});
    return std::tuple{keys, store.backend().sigma(), replay.makespan_us,
                      replay.messages};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EndToEnd, LocalQualityBeatsChAtMatchedFootprint) {
  // The figure-9 headline at test scale: 256 homogeneous nodes, one
  // vnode per snode, Pmin=32 vs CH with 32 points per node.
  dht::LocalDht dht(cfg(32, 32, 11));
  for (int n = 0; n < 256; ++n) {
    dht.create_vnode(dht.add_snode());
  }
  ch::ConsistentHashRing ring(11);
  for (int n = 0; n < 256; ++n) ring.add_node(32);
  EXPECT_LT(dht.sigma_qv(), ring.sigma_qn());
}

}  // namespace
}  // namespace cobalt
