// Tests for the event-driven protocol DES (cluster::ProtocolDriver):
// the one-accounting-source invariant (DES-derived handover and repair
// totals bit-identical to the store's relocation/replication channels
// over random churn, on all seven backends), the serialization-domain
// structure per scheme, and the scheduling surfaces.

#include "cluster/protocol_driver.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kv/store.hpp"
#include "sim/protocol_cost.hpp"

namespace cobalt::cluster {
namespace {

std::vector<std::string> make_keys(std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back("k" + std::to_string(i));
  }
  return keys;
}

dht::Config dht_cfg(std::uint64_t pmin, std::uint64_t vmin,
                    std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

/// The lockstep invariant: run random store-level churn with the
/// driver attached and require the DES batch totals to equal the
/// store's two stats channels bit for bit - same event log, three
/// views. Exercised per scheme at k = 1..3.
template <typename StoreT, typename MakeStore>
void expect_lockstep(MakeStore make) {
  for (std::size_t k = 1; k <= 3; ++k) {
    StoreT store = make(k);
    const auto keys = make_keys(800);
    const auto outcome =
        sim::run_protocol_churn(store, 8, 20, keys, /*seed=*/1234 + k);

    const placement::MigrationStats reloc = store.stats().relocation;
    const kv::ReplicationStats repl = store.stats().replication;

    EXPECT_EQ(outcome.totals.handover_keys_total, reloc.keys_moved_total);
    EXPECT_EQ(outcome.totals.handover_keys_cross,
              reloc.keys_moved_across_nodes);
    EXPECT_EQ(outcome.totals.rebucket_keys, reloc.keys_rebucketed);
    EXPECT_EQ(outcome.totals.repair_copies, repl.keys_rereplicated);
    EXPECT_EQ(outcome.totals.keys_lost, repl.keys_lost);

    // The scenario moved real data, so the log cannot be empty and
    // scheduling it must take time and messages.
    EXPECT_GT(outcome.totals.handover_keys_cross, 0u);
    EXPECT_GT(outcome.schedule.rounds, 0u);
    EXPECT_GT(outcome.schedule.messages, 0u);
    EXPECT_GT(outcome.schedule.makespan_us, 0.0);
    // Serializing the events can never be faster than overlapping
    // them, and scheduling does not change message counts.
    EXPECT_GE(outcome.serialized.makespan_us,
              outcome.schedule.makespan_us - 1e-9);
    EXPECT_EQ(outcome.serialized.messages, outcome.schedule.messages);
  }
}

TEST(ProtocolDriverLockstep, LocalDht) {
  expect_lockstep<kv::KvStore>([](std::size_t k) {
    return kv::KvStore({dht_cfg(32, 8, 11), 1}, placement::ReplicationSpec{k});
  });
}

TEST(ProtocolDriverLockstep, GlobalDht) {
  expect_lockstep<kv::GlobalKvStore>([](std::size_t k) {
    return kv::GlobalKvStore({dht_cfg(32, 1, 12), 1},
                             placement::ReplicationSpec{k});
  });
}

TEST(ProtocolDriverLockstep, ConsistentHashing) {
  expect_lockstep<kv::ChKvStore>(
      [](std::size_t k) {
        return kv::ChKvStore({13, 16}, placement::ReplicationSpec{k});
      });
}

TEST(ProtocolDriverLockstep, Rendezvous) {
  expect_lockstep<kv::HrwKvStore>(
      [](std::size_t k) {
        return kv::HrwKvStore({14, 10}, placement::ReplicationSpec{k});
      });
}

TEST(ProtocolDriverLockstep, Jump) {
  expect_lockstep<kv::JumpKvStore>(
      [](std::size_t k) {
        return kv::JumpKvStore({15, 10}, placement::ReplicationSpec{k});
      });
}

TEST(ProtocolDriverLockstep, Maglev) {
  expect_lockstep<kv::MaglevKvStore>(
      [](std::size_t k) {
        return kv::MaglevKvStore({16, 10}, placement::ReplicationSpec{k});
      });
}

TEST(ProtocolDriverLockstep, BoundedCh) {
  expect_lockstep<kv::BoundedChKvStore>([](std::size_t k) {
    return kv::BoundedChKvStore({17, 16, 0.1, 10},
                                placement::ReplicationSpec{k});
  });
}

TEST(SerializationDomains, GlobalIsOneDomain) {
  // One replicated GPDR: every round of every event serializes through
  // domain 0, so the longest chain is the whole log.
  kv::GlobalKvStore store({dht_cfg(32, 1, 21), 1},
                          placement::ReplicationSpec{2});
  ProtocolDriver<placement::GlobalDhtBackend> driver(store);
  for (int n = 0; n < 6; ++n) store.add_node();
  const auto keys = make_keys(400);
  for (const auto& key : keys) store.put(key, "v");
  store.add_node();
  store.remove_node(0);

  const ScheduleOutcome outcome = driver.run();
  EXPECT_EQ(outcome.domains_used, 1u);
  EXPECT_EQ(outcome.serialized_round_depth, outcome.rounds);
  EXPECT_NEAR(outcome.concurrency, 1.0, 1e-9);
}

TEST(SerializationDomains, LocalUsesPerGroupDomains) {
  // Small Vmin so the growth splits groups: events land in different
  // LPDR domains and the chain is shorter than the log.
  kv::KvStore store({dht_cfg(32, 2, 22), 1}, placement::ReplicationSpec{2});
  ProtocolDriver<placement::LocalDhtBackend> driver(store);
  const auto keys = make_keys(400);
  for (int n = 0; n < 16; ++n) store.add_node();
  for (const auto& key : keys) store.put(key, "v");
  for (int n = 0; n < 8; ++n) store.add_node();

  EXPECT_GT(store.backend().dht().group_count(), 1u);
  const ScheduleOutcome outcome = driver.run();
  EXPECT_GT(outcome.domains_used, 1u);
  EXPECT_LT(outcome.serialized_round_depth, outcome.rounds);
}

TEST(SerializationDomains, GridSchemesFallBackToTheArcLattice) {
  // HRW defines no native serialization domain; ranges map onto the
  // top-bits arc lattice (many domains, concurrent rounds).
  kv::HrwKvStore store({23, 10}, placement::ReplicationSpec{1});
  ProtocolDriver<placement::HrwBackend> driver(store);
  const auto keys = make_keys(600);
  store.add_node();
  for (const auto& key : keys) store.put(key, "v");
  for (int n = 0; n < 8; ++n) store.add_node();

  const ScheduleOutcome outcome = driver.run();
  EXPECT_GT(outcome.domains_used, 1u);
  EXPECT_GT(outcome.concurrency, 1.0);
}

TEST(SerializationDomains, ArcLatticeIsTheTopBits) {
  EXPECT_EQ(placement::arc_serialization_domain(0, 8), 0u);
  EXPECT_EQ(placement::arc_serialization_domain(HashSpace::kMaxIndex, 8),
            255u);
  EXPECT_EQ(placement::arc_serialization_domain(HashIndex{1} << 56, 8), 1u);
  EXPECT_THROW((void)placement::arc_serialization_domain(0, 0),
               InvalidArgument);
  EXPECT_THROW((void)placement::arc_serialization_domain(0, 32),
               InvalidArgument);
}

TEST(ProtocolDriver, ClearRestrictsTheLogToLaterEvents) {
  kv::HrwKvStore store({25, 10}, placement::ReplicationSpec{2});
  ProtocolDriver<placement::HrwBackend> driver(store);
  const auto keys = make_keys(300);
  for (int n = 0; n < 6; ++n) store.add_node();
  for (const auto& key : keys) store.put(key, "v");

  driver.clear();
  EXPECT_EQ(driver.totals().events, 0u);
  EXPECT_TRUE(driver.recorded().empty());

  store.add_node();
  EXPECT_EQ(driver.totals().events, 1u);
  EXPECT_FALSE(driver.recorded().empty());
}

TEST(ProtocolDriver, ArrivalGapsDelayButNeverReorderDomains) {
  // The same log scheduled with spaced arrivals can only finish later;
  // messages are a property of the log, not the schedule.
  kv::JumpKvStore store({26, 10}, placement::ReplicationSpec{2});
  ProtocolDriver<placement::JumpBackend> driver(store);
  const auto keys = make_keys(400);
  for (int n = 0; n < 6; ++n) store.add_node();
  for (const auto& key : keys) store.put(key, "v");
  for (int n = 0; n < 4; ++n) store.add_node();

  const ScheduleOutcome at_once = driver.run(0.0);
  const ScheduleOutcome spaced = driver.run(500.0);
  EXPECT_GE(spaced.makespan_us, at_once.makespan_us - 1e-9);
  EXPECT_EQ(spaced.messages, at_once.messages);
  EXPECT_EQ(spaced.rounds, at_once.rounds);
}

}  // namespace
}  // namespace cobalt::cluster
