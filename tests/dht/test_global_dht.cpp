// Unit and property tests for the global approach (section 2).

#include "dht/global_dht.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "dht/invariants.hpp"

namespace cobalt::dht {
namespace {

Config make_config(std::uint64_t pmin, std::uint64_t seed = 1) {
  Config c;
  c.pmin = pmin;
  c.seed = seed;
  return c;
}

TEST(GlobalDht, BootstrapGivesFirstVnodeTheWholeRange) {
  GlobalDht dht(make_config(8));
  const SNodeId s = dht.add_snode();
  const VNodeId v = dht.create_vnode(s);
  EXPECT_EQ(dht.vnode_count(), 1u);
  EXPECT_EQ(dht.gpdr().count_of(v), 8u);
  EXPECT_EQ(dht.splitlevel(), 3u);  // Pmin = 8 partitions = 2^3
  EXPECT_EQ(dht.exact_quota(v), Dyadic::one());
  check_invariants(dht);
}

TEST(GlobalDht, SecondVnodeHalvesTheRange) {
  GlobalDht dht(make_config(8));
  const SNodeId s = dht.add_snode();
  const VNodeId v0 = dht.create_vnode(s);
  const VNodeId v1 = dht.create_vnode(s);
  // V = 2 is a power of two: G5 demands both at Pmin after one split.
  EXPECT_EQ(dht.gpdr().count_of(v0), 8u);
  EXPECT_EQ(dht.gpdr().count_of(v1), 8u);
  EXPECT_EQ(dht.splitlevel(), 4u);
  EXPECT_EQ(dht.exact_quota(v0), Dyadic::one_over_pow2(1));
  EXPECT_EQ(dht.exact_quota(v1), Dyadic::one_over_pow2(1));
  check_invariants(dht);
}

TEST(GlobalDht, InvariantsHoldThroughGrowth) {
  GlobalDht dht(make_config(4));
  const SNodeId s = dht.add_snode();
  for (int i = 0; i < 70; ++i) {
    dht.create_vnode(s);
    ASSERT_NO_THROW(check_invariants(dht)) << "after vnode " << i + 1;
  }
}

TEST(GlobalDht, PerfectBalanceAtPowersOfTwo) {
  GlobalDht dht(make_config(16));
  const SNodeId s = dht.add_snode();
  for (int i = 1; i <= 64; ++i) {
    dht.create_vnode(s);
    if (std::has_single_bit(static_cast<unsigned>(i))) {
      EXPECT_NEAR(dht.sigma_qv(), 0.0, 1e-12) << "V = " << i;
    }
  }
}

TEST(GlobalDht, SigmaQvEqualsSigmaPv) {
  // Section 2.4: with equal-size partitions the two metrics coincide.
  GlobalDht dht(make_config(8));
  const SNodeId s = dht.add_snode();
  for (int i = 0; i < 23; ++i) dht.create_vnode(s);
  EXPECT_NEAR(dht.sigma_qv(), dht.sigma_pv(), 1e-12);
}

TEST(GlobalDht, SplitLevelFollowsVnodeCount) {
  GlobalDht dht(make_config(8));
  const SNodeId s = dht.add_snode();
  // P must always be the smallest power of two >= V * Pmin.
  for (int i = 1; i <= 40; ++i) {
    dht.create_vnode(s);
    const std::uint64_t p = dht.gpdr().total();
    EXPECT_GE(p, static_cast<std::uint64_t>(i) * 8u);
    EXPECT_LT(p / 2, static_cast<std::uint64_t>(i) * 8u);
    EXPECT_EQ(p, std::uint64_t{1} << dht.splitlevel());
  }
}

TEST(GlobalDht, LookupFindsOwningVnode) {
  GlobalDht dht(make_config(8, 99));
  const SNodeId s = dht.add_snode();
  for (int i = 0; i < 9; ++i) dht.create_vnode(s);
  Xoshiro256 rng(5);
  for (int probe = 0; probe < 1000; ++probe) {
    const HashIndex r = rng.next();
    const auto hit = dht.lookup(r);
    EXPECT_TRUE(hit.partition.contains(r));
    const VNode& v = dht.vnode(hit.owner);
    EXPECT_TRUE(v.alive);
  }
}

TEST(GlobalDht, SnodeHostsItsVnodes) {
  GlobalDht dht(make_config(4));
  const SNodeId s0 = dht.add_snode(1.0);
  const SNodeId s1 = dht.add_snode(2.0);
  const VNodeId a = dht.create_vnode(s0);
  const VNodeId b = dht.create_vnode(s1);
  const VNodeId c = dht.create_vnode(s1);
  EXPECT_EQ(dht.vnode(a).snode, s0);
  EXPECT_EQ(dht.snode(s1).vnodes, (std::vector<VNodeId>{b, c}));
  EXPECT_DOUBLE_EQ(dht.snode(s1).capacity, 2.0);
}

TEST(GlobalDht, RemoveVnodeRedistributesAndMerges) {
  GlobalDht dht(make_config(8));
  const SNodeId s = dht.add_snode();
  std::vector<VNodeId> ids;
  for (int i = 0; i < 9; ++i) ids.push_back(dht.create_vnode(s));
  const std::uint64_t p_before = dht.gpdr().total();
  dht.remove_vnode(ids[4]);
  EXPECT_EQ(dht.vnode_count(), 8u);
  EXPECT_FALSE(dht.vnode(ids[4]).alive);
  // Back at V = 8: the supply must have merged back down.
  EXPECT_EQ(dht.gpdr().total(), p_before / 2);
  check_invariants(dht, /*creation_only=*/false);
  // After merging to V = 2^k the distribution is perfectly uniform again.
  EXPECT_NEAR(dht.sigma_qv(), 0.0, 1e-12);
}

TEST(GlobalDht, RemoveManyVnodesKeepsInvariants) {
  GlobalDht dht(make_config(4, 3));
  const SNodeId s = dht.add_snode();
  std::vector<VNodeId> ids;
  for (int i = 0; i < 33; ++i) ids.push_back(dht.create_vnode(s));
  // Remove every other vnode.
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    dht.remove_vnode(ids[i]);
    ASSERT_NO_THROW(check_invariants(dht, /*creation_only=*/false))
        << "after removing " << i;
  }
  EXPECT_EQ(dht.vnode_count(), 16u);
}

namespace {

/// Counts mutation events (drain-path coverage: remove_vnode must
/// announce every transfer of the drain and every buddy merge of
/// merge_everything to its observer).
class EventCounter final : public MutationObserver {
 public:
  void on_transfer(const Partition&, VNodeId from, VNodeId /*to*/) override {
    ++transfers;
    last_transfer_from = from;
  }
  void on_split(const Partition&, VNodeId) override { ++splits; }
  void on_merge(const Partition& parent, VNodeId, VNodeId) override {
    ++merges;
    merged_level = parent.level();
  }

  std::size_t transfers = 0;
  std::size_t splits = 0;
  std::size_t merges = 0;
  VNodeId last_transfer_from = kInvalidVNode;
  unsigned merged_level = 0;
};

}  // namespace

TEST(GlobalDht, RemovalDrainAnnouncesTransfersAndMerges) {
  // V = 9 -> 8 crosses a power of two downward: the drain must emit
  // one transfer per partition the departing vnode held, then
  // merge_everything must emit one merge per surviving buddy pair.
  GlobalDht dht(make_config(8));
  const SNodeId s = dht.add_snode();
  std::vector<VNodeId> ids;
  for (int i = 0; i < 9; ++i) ids.push_back(dht.create_vnode(s));

  EventCounter events;
  dht.set_observer(&events);
  const std::uint64_t held = dht.gpdr().count_of(ids[4]);
  const std::uint64_t p_before = dht.gpdr().total();
  const unsigned level_before = dht.splitlevel();
  dht.remove_vnode(ids[4]);
  dht.set_observer(nullptr);

  EXPECT_GE(events.transfers, held);  // drain + pairwise rebalance
  EXPECT_EQ(events.merges, p_before / 2);
  EXPECT_EQ(events.merged_level, level_before - 1);
  EXPECT_EQ(dht.splitlevel(), level_before - 1);
  EXPECT_EQ(events.splits, 0u);
  check_invariants(dht, /*creation_only=*/false);
}

TEST(GlobalDht, DrainedVnodeHoldsNothingAndSurvivorsCoverTheRange) {
  GlobalDht dht(make_config(4, 11));
  const SNodeId s = dht.add_snode();
  std::vector<VNodeId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(dht.create_vnode(s));
  dht.remove_vnode(ids[2]);
  EXPECT_EQ(dht.exact_quota(ids[2]).to_double(), 0.0);
  EXPECT_TRUE(dht.vnode(ids[2]).partitions.empty());
  Dyadic total;
  for (const VNodeId id : dht.live_vnodes()) total += dht.exact_quota(id);
  EXPECT_DOUBLE_EQ(total.to_double(), 1.0);
}

TEST(GlobalDht, RemoveLastVnodeRejected) {
  GlobalDht dht(make_config(4));
  const SNodeId s = dht.add_snode();
  const VNodeId v = dht.create_vnode(s);
  EXPECT_THROW((void)dht.remove_vnode(v), InvalidArgument);
}

TEST(GlobalDht, RemoveDeadVnodeRejected) {
  GlobalDht dht(make_config(4));
  const SNodeId s = dht.add_snode();
  const VNodeId v0 = dht.create_vnode(s);
  dht.create_vnode(s);
  dht.create_vnode(s);
  dht.remove_vnode(v0);
  EXPECT_THROW((void)dht.remove_vnode(v0), InvalidArgument);
}

TEST(GlobalDht, GrowShrinkGrowRoundTrip) {
  GlobalDht dht(make_config(8, 17));
  const SNodeId s = dht.add_snode();
  std::vector<VNodeId> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(dht.create_vnode(s));
  for (int i = 19; i >= 8; --i) {
    dht.remove_vnode(ids[static_cast<std::size_t>(i)]);
  }
  check_invariants(dht, /*creation_only=*/false);
  for (int i = 0; i < 12; ++i) dht.create_vnode(s);
  check_invariants(dht, /*creation_only=*/false);
  EXPECT_EQ(dht.vnode_count(), 20u);
}

TEST(GlobalDht, InvalidConfigRejected) {
  Config c;
  c.pmin = 12;  // not a power of two
  EXPECT_THROW(GlobalDht dht(c), InvalidArgument);
}

TEST(GlobalDht, CreateOnUnknownSnodeRejected) {
  GlobalDht dht(make_config(4));
  EXPECT_THROW((void)dht.create_vnode(3), InvalidArgument);
}

// Parameterized sweep: the quality metric at V = 1024 improves as Pmin
// grows (the paper's figure 4 zone-1 behaviour, global flavour), and
// invariants hold for every Pmin.
class GlobalSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GlobalSweep, InvariantsAndQualityAtScale) {
  GlobalDht dht(make_config(GetParam(), 11));
  const SNodeId s = dht.add_snode();
  for (int i = 0; i < 300; ++i) dht.create_vnode(s);
  check_invariants(dht);
  // Counts live in [Pmin, Pmax] (G4), so sigma/mean < 1/2 always; the
  // greedy algorithm is far tighter, keeping counts within ~2 of each
  // other, i.e. sigma-bar <~ 2/Pmin.
  EXPECT_LE(dht.sigma_qv(), 2.0 / static_cast<double>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(PminSweep, GlobalSweep,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u, 128u));

}  // namespace
}  // namespace cobalt::dht
