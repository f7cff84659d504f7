// Tests for sustained churn (sim::run_churn) on the two balanced-DHT
// approaches, one vnode per node.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "placement/dht_backend.hpp"
#include "sim/scenario.hpp"

namespace cobalt::sim {
namespace {

dht::Config cfg(std::uint64_t pmin, std::uint64_t vmin, std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

TEST(Churn, GlobalChurnNeverRefusesAndStaysBalanced) {
  placement::GlobalDhtBackend backend({cfg(8, 1, 1), 1});
  const auto result = run_churn(backend, 40, 100, 1);
  EXPECT_EQ(result.refused_removals, 0u);
  EXPECT_EQ(result.completed_removals, 100u);
  ASSERT_EQ(result.sigma_series.size(), 100u);
  for (const double sigma : result.sigma_series) {
    EXPECT_LT(sigma, 0.2);  // greedy keeps counts within ~2 of the mean
  }
}

TEST(Churn, LocalChurnKeepsPopulationAndSanity) {
  placement::LocalDhtBackend backend({cfg(8, 8, 2), 1});
  const auto result = run_churn(backend, 64, 150, 2);
  EXPECT_EQ(result.sigma_series.size(), 150u);
  EXPECT_GT(result.completed_removals, 0u);
  EXPECT_GT(backend.dht().group_count(), 0u);
  for (const double sigma : result.sigma_series) {
    EXPECT_GE(sigma, 0.0);
    EXPECT_LT(sigma, 1.0);
  }
}

TEST(Churn, RefusalsAreRareWithRoomyGroups) {
  // With a single group (Vmin >= population) every removal is an
  // intra-group redistribution; refusals can only come from the
  // (rarely infeasible) count bound, which the single group's complete
  // buddy set always satisfies.
  placement::LocalDhtBackend backend({cfg(8, 64, 3), 1});
  const auto result = run_churn(backend, 48, 100, 3);
  EXPECT_EQ(result.refused_removals, 0u);
  EXPECT_EQ(backend.dht().group_count(), 1u);
}

TEST(Churn, SigmaStaysBoundedUnderSustainedLocalChurn) {
  placement::LocalDhtBackend backend({cfg(32, 32, 4), 1});
  const auto result = run_churn(backend, 128, 200, 4);
  double late = 0.0;
  for (std::size_t i = 150; i < 200; ++i) late += result.sigma_series[i];
  late /= 50.0;
  // The plateau band of figure 4 at (32,32) is ~10%; churn should not
  // blow it past a generous multiple.
  EXPECT_LT(late, 0.30);
}

TEST(Churn, DeterministicPerSeed) {
  placement::LocalDhtBackend first({cfg(8, 8, 7), 1});
  placement::LocalDhtBackend second({cfg(8, 8, 7), 1});
  const auto a = run_churn(first, 40, 60, 7);
  const auto b = run_churn(second, 40, 60, 7);
  EXPECT_EQ(a.sigma_series, b.sigma_series);
  EXPECT_EQ(a.refused_removals, b.refused_removals);
}

TEST(Churn, Validation) {
  placement::LocalDhtBackend local({cfg(8, 8, 1), 1});
  placement::GlobalDhtBackend global({cfg(8, 1, 1), 1});
  EXPECT_THROW((void)run_churn(local, 1, 10, 1), InvalidArgument);
  EXPECT_THROW((void)run_churn(global, 0, 10, 1), InvalidArgument);
}

}  // namespace
}  // namespace cobalt::sim
