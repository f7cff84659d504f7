// CH-backend-specific tests for the unified store: relocation
// accounting of joins and leaves (satellite coverage of the removal
// drain path), storage balance against ring quotas, and the
// no-rebucketing property of Consistent Hashing.

#include <gtest/gtest.h>

#include <string>

#include "kv/store.hpp"

namespace cobalt::kv {
namespace {

TEST(ChKvStore, JoinMovesRoughlyAFairShare) {
  ChKvStore store({7, 32});
  store.add_node();
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) store.put("f" + std::to_string(i), "v");
  for (int n = 1; n < 10; ++n) store.add_node();
  // Joining node n steals ~K/n keys; summed over joins 2..10 that is
  // K * (1/2 + ... + 1/10) ~ 1.93 K. Allow a wide band.
  const double moved =
      static_cast<double>(store.stats().relocation.keys_moved_total);
  EXPECT_GT(moved, 1.0 * kKeys);
  EXPECT_LT(moved, 3.0 * kKeys);
  // CH has no intra-node structure: every move crosses nodes, and no
  // key is ever re-bucketed.
  EXPECT_EQ(store.stats().relocation.keys_moved_across_nodes,
            store.stats().relocation.keys_moved_total);
  EXPECT_EQ(store.stats().relocation.keys_rebucketed, 0u);
}

TEST(ChKvStore, LeaveMovesExactlyTheNodesKeys) {
  ChKvStore store({9, 32});
  for (int n = 0; n < 8; ++n) store.add_node();
  constexpr int kKeys = 8000;
  for (int i = 0; i < kKeys; ++i) store.put("l" + std::to_string(i), "v");
  const auto before = store.keys_per_node();
  const std::uint64_t moved_before =
      store.stats().relocation.keys_moved_total;
  ASSERT_TRUE(store.remove_node(3));
  const std::uint64_t moved =
      store.stats().relocation.keys_moved_total - moved_before;
  EXPECT_EQ(moved, before[3]);
  // The departed node's keys are reachable on survivors.
  EXPECT_EQ(store.keys_per_node()[3], 0u);
  std::size_t total = 0;
  for (const auto c : store.keys_per_node()) total += c;
  EXPECT_EQ(total, static_cast<std::size_t>(kKeys));
}

TEST(ChKvStore, LeaveAccountingMatchesOwnershipDiff) {
  ChKvStore store({13, 16});
  for (int n = 0; n < 6; ++n) store.add_node();
  constexpr int kKeys = 5000;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("d" + std::to_string(i));
    store.put(keys.back(), "v");
  }
  std::vector<placement::NodeId> owner_before;
  for (const auto& key : keys) owner_before.push_back(store.owner_of(key));
  const std::uint64_t across_before =
      store.stats().relocation.keys_moved_across_nodes;
  ASSERT_TRUE(store.remove_node(2));
  std::uint64_t changed = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (store.owner_of(keys[i]) != owner_before[i]) ++changed;
  }
  EXPECT_EQ(store.stats().relocation.keys_moved_across_nodes - across_before,
            changed);
  EXPECT_GT(changed, 0u);
}

TEST(ChKvStore, StorageBalanceMatchesQuotaBalance) {
  ChKvStore store({11, 32});
  for (int n = 0; n < 16; ++n) store.add_node();
  constexpr int kKeys = 64000;
  for (int i = 0; i < kKeys; ++i) store.put("s" + std::to_string(i), "v");
  const auto counts = store.keys_per_node();
  const auto quotas = store.backend().quotas();
  for (std::size_t n = 0; n < counts.size(); ++n) {
    const double observed =
        static_cast<double>(counts[n]) / static_cast<double>(kKeys);
    EXPECT_NEAR(observed, quotas[n], 0.02) << "node " << n;
  }
}

TEST(ChKvStore, HeterogeneousCapacityScalesRingPoints) {
  ChKvStore store({17, 8});
  store.add_node(1.0);
  store.add_node(4.0);
  EXPECT_EQ(store.backend().ring().point_count(), 8u + 32u);
  constexpr int kKeys = 40000;
  for (int i = 0; i < kKeys; ++i) store.put("w" + std::to_string(i), "v");
  const auto counts = store.keys_per_node();
  // The 4x node should hold roughly 4x the keys (CH is noisy; wide band).
  EXPECT_GT(counts[1], 2 * counts[0]);
}

TEST(ChKvStore, RemovingTheLastNodeIsRejected) {
  ChKvStore store({19, 8});
  store.add_node();
  store.put("k", "v");
  EXPECT_THROW((void)store.remove_node(0), InvalidArgument);
  EXPECT_EQ(store.get("k"), "v");
}

}  // namespace
}  // namespace cobalt::kv
