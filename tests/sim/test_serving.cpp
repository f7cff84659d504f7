// Tests for the request-level serving simulation: the queueing engine
// itself (arrival processes, slowdowns, repair-work competition, spec
// validation) and the two properties the scenario layer leans on -
// conservation (the served stream is exactly the workload stream, node
// by node) and determinism (same seed, byte-identical CSV artifacts) -
// across all seven placement backends.

#include "sim/serving.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "kv/store.hpp"

namespace cobalt::sim {
namespace {

dht::Config cfg(std::uint64_t pmin, std::uint64_t vmin, std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

/// Per-backend replicated-store factory, mirroring the footprint used
/// by the kv-layer suites.
template <typename StoreT>
StoreT make_store(std::uint64_t seed, std::size_t replication);

template <>
kv::KvStore make_store<kv::KvStore>(std::uint64_t seed,
                                    std::size_t replication) {
  return kv::KvStore({cfg(8, 8, seed), 1},
                     placement::ReplicationSpec{replication});
}

template <>
kv::GlobalKvStore make_store<kv::GlobalKvStore>(std::uint64_t seed,
                                                std::size_t replication) {
  return kv::GlobalKvStore({cfg(8, 1, seed), 1},
                           placement::ReplicationSpec{replication});
}

template <>
kv::ChKvStore make_store<kv::ChKvStore>(std::uint64_t seed,
                                        std::size_t replication) {
  return kv::ChKvStore({seed, 16}, placement::ReplicationSpec{replication});
}

template <>
kv::HrwKvStore make_store<kv::HrwKvStore>(std::uint64_t seed,
                                          std::size_t replication) {
  return kv::HrwKvStore({seed, 12}, placement::ReplicationSpec{replication});
}

template <>
kv::JumpKvStore make_store<kv::JumpKvStore>(std::uint64_t seed,
                                            std::size_t replication) {
  return kv::JumpKvStore({seed, 12}, placement::ReplicationSpec{replication});
}

template <>
kv::MaglevKvStore make_store<kv::MaglevKvStore>(std::uint64_t seed,
                                                std::size_t replication) {
  return kv::MaglevKvStore({seed, 12}, placement::ReplicationSpec{replication});
}

template <>
kv::BoundedChKvStore make_store<kv::BoundedChKvStore>(std::uint64_t seed,
                                                      std::size_t replication) {
  return kv::BoundedChKvStore({seed, 16, 0.25, 12},
                              placement::ReplicationSpec{replication});
}

ServingSpec uniform_spec(std::size_t keys, std::size_t requests) {
  ServingSpec spec;
  spec.workload.distribution = KeyDistribution::kUniform;
  spec.workload.key_count = keys;
  spec.requests = requests;
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

template <typename StoreT>
class ServingStoreSuite : public ::testing::Test {};

using StoreTypes =
    ::testing::Types<kv::KvStore, kv::GlobalKvStore, kv::ChKvStore,
                     kv::HrwKvStore, kv::JumpKvStore, kv::MaglevKvStore,
                     kv::BoundedChKvStore>;
TYPED_TEST_SUITE(ServingStoreSuite, StoreTypes);

// Conservation: with k = 1, identical service times, and primary
// routing, the sim is a deterministic function of the workload stream -
// replaying ServingSim::workload_generator through owner_of must
// reproduce the per-node request totals *exactly*, and every issued
// request completes.
TYPED_TEST(ServingStoreSuite, RequestStreamIsConservedAtKOne) {
  auto store = make_store<TypeParam>(921, 1);
  for (int n = 0; n < 6; ++n) store.add_node();
  ServingSpec spec = uniform_spec(300, 2500);
  spec.arrival_rate_rps = 60000.0;
  spec.service_time_us = 50.0;
  const std::uint64_t seed = 77;
  const ServingOutcome outcome =
      run_steady_serving(store, spec, kv::ReadPolicy::kPrimary, seed);
  EXPECT_EQ(outcome.issued, spec.requests);
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_EQ(outcome.completed, spec.requests);
  EXPECT_EQ(outcome.latency.count(), spec.requests);

  WorkloadGenerator replay = ServingSim::workload_generator(spec, seed);
  std::vector<std::uint64_t> expected(store.backend().node_slot_count(), 0);
  for (std::size_t i = 0; i < spec.requests; ++i) {
    const placement::NodeId owner =
        store.owner_of(replay.key_at(replay.next_index()));
    ASSERT_NE(owner, placement::kInvalidNode);
    ++expected[owner];
  }
  ASSERT_LE(outcome.nodes.size(), expected.size());
  std::uint64_t served = 0;
  for (std::size_t n = 0; n < expected.size(); ++n) {
    const std::uint64_t got =
        n < outcome.nodes.size() ? outcome.nodes[n].requests : 0;
    EXPECT_EQ(got, expected[n]) << "node " << n;
    served += got;
  }
  EXPECT_EQ(served, spec.requests);
}

// Determinism: two runs from the same (spec, seed) - including writes
// and the queue-depth-probing read policy - emit byte-identical latency
// and per-node CSVs.
TYPED_TEST(ServingStoreSuite, SameSeedRunsEmitByteIdenticalCsvs) {
  ServingSpec spec;
  spec.workload.distribution = KeyDistribution::kHotspot;
  spec.workload.key_count = 200;
  spec.requests = 1500;
  spec.arrival_rate_rps = 50000.0;
  spec.write_fraction = 0.2;
  // Process-unique: suites of two builds may share the temp directory.
  const std::string base = ::testing::TempDir() + "cobalt_serving_" +
                           std::to_string(::getpid()) + "_";
  std::array<std::string, 2> latency_paths;
  std::array<std::string, 2> node_paths;
  for (int run = 0; run < 2; ++run) {
    auto store = make_store<TypeParam>(922, 2);
    for (int n = 0; n < 5; ++n) store.add_node();
    const ServingOutcome outcome =
        run_steady_serving(store, spec, kv::ReadPolicy::kLeastLoaded, 13);
    EXPECT_EQ(outcome.completed + outcome.failed, outcome.issued);
    latency_paths[run] = base + "latency_" + std::to_string(run) + ".csv";
    node_paths[run] = base + "nodes_" + std::to_string(run) + ".csv";
    write_latency_csv(outcome, latency_paths[run]);
    write_node_csv(outcome, node_paths[run]);
  }
  const std::string latency_a = slurp(latency_paths[0]);
  EXPECT_FALSE(latency_a.empty());
  EXPECT_EQ(latency_a, slurp(latency_paths[1]));
  const std::string nodes_a = slurp(node_paths[0]);
  EXPECT_FALSE(nodes_a.empty());
  EXPECT_EQ(nodes_a, slurp(node_paths[1]));
  for (int run = 0; run < 2; ++run) {
    std::remove(latency_paths[run].c_str());
    std::remove(node_paths[run].c_str());
  }
}

TEST(ServingSim, ClosedLoopServesTheStreamBackToBack) {
  // One node, four clients, zero think time: the node never idles, so
  // the makespan is exactly requests x service time, and the queue
  // never holds more jobs than there are clients.
  ServingSpec spec = uniform_spec(10, 200);
  spec.arrivals = ArrivalProcess::kClosedLoop;
  spec.clients = 4;
  spec.service_time_us = 10.0;
  ServingSim sim(spec, 5);
  sim.set_read_router(
      [](const std::string&) { return placement::NodeId{0}; });
  const ServingOutcome outcome = sim.run();
  EXPECT_EQ(outcome.completed, 200u);
  EXPECT_DOUBLE_EQ(outcome.makespan_us, 2000.0);
  ASSERT_EQ(outcome.nodes.size(), 1u);
  EXPECT_EQ(outcome.nodes[0].requests, 200u);
  EXPECT_LE(outcome.nodes[0].max_queue_depth, 4u);
  EXPECT_DOUBLE_EQ(outcome.nodes[0].busy_us, 2000.0);
}

TEST(ServingSim, SlowdownScalesServiceTime) {
  // A single sequential client alternating between two nodes: the 4x
  // slow node accumulates exactly 4x the busy time for the same number
  // of requests.
  ServingSpec spec = uniform_spec(10, 100);
  spec.arrivals = ArrivalProcess::kClosedLoop;
  spec.clients = 1;
  spec.service_time_us = 10.0;
  ServingSim sim(spec, 9);
  sim.set_node_slowdown(1, 4.0);
  std::size_t next = 0;
  sim.set_read_router([&next](const std::string&) {
    return static_cast<placement::NodeId>(next++ % 2);
  });
  const ServingOutcome outcome = sim.run();
  EXPECT_EQ(outcome.completed, 100u);
  ASSERT_EQ(outcome.nodes.size(), 2u);
  EXPECT_EQ(outcome.nodes[0].requests, 50u);
  EXPECT_EQ(outcome.nodes[1].requests, 50u);
  EXPECT_DOUBLE_EQ(outcome.nodes[0].busy_us, 500.0);
  EXPECT_DOUBLE_EQ(outcome.nodes[1].busy_us, 2000.0);
}

TEST(ServingSim, RepairWorkCompetesWithForegroundRequests) {
  // 100us of repair work enqueued at time zero heads the FIFO: the
  // first request waits behind it, and the node's busy time covers
  // both job classes.
  ServingSpec spec = uniform_spec(10, 10);
  spec.arrivals = ArrivalProcess::kClosedLoop;
  spec.clients = 1;
  spec.service_time_us = 10.0;
  ServingSim sim(spec, 11);
  sim.set_read_router(
      [](const std::string&) { return placement::NodeId{0}; });
  sim.add_repair_work(0, 100.0);
  const ServingOutcome outcome = sim.run();
  EXPECT_EQ(outcome.completed, 10u);
  EXPECT_DOUBLE_EQ(outcome.makespan_us, 200.0);
  ASSERT_EQ(outcome.nodes.size(), 1u);
  EXPECT_EQ(outcome.nodes[0].repair_jobs, 1u);
  EXPECT_DOUBLE_EQ(outcome.nodes[0].busy_us, 200.0);
}

TEST(ServingSim, CountsUnroutableRequestsAsFailed) {
  ServingSpec spec = uniform_spec(10, 50);
  spec.arrivals = ArrivalProcess::kClosedLoop;
  spec.clients = 4;
  ServingSim sim(spec, 3);
  sim.set_read_router(
      [](const std::string&) { return placement::kInvalidNode; });
  const ServingOutcome outcome = sim.run();
  EXPECT_EQ(outcome.issued, 50u);
  EXPECT_EQ(outcome.failed, 50u);
  EXPECT_EQ(outcome.completed, 0u);
}

TEST(ServingSim, ValidatesSpecAndIsSingleUse) {
  const ServingSpec good = uniform_spec(10, 5);
  ServingSpec bad = good;
  bad.requests = 0;
  EXPECT_THROW(ServingSim(bad, 1), InvalidArgument);
  bad = good;
  bad.service_time_us = 0.0;
  EXPECT_THROW(ServingSim(bad, 1), InvalidArgument);
  bad = good;
  bad.write_fraction = 1.5;
  EXPECT_THROW(ServingSim(bad, 1), InvalidArgument);
  bad = good;
  bad.arrival_rate_rps = 0.0;
  EXPECT_THROW(ServingSim(bad, 1), InvalidArgument);
  bad = good;
  bad.arrivals = ArrivalProcess::kClosedLoop;
  bad.clients = 0;
  EXPECT_THROW(ServingSim(bad, 1), InvalidArgument);

  ServingSim unrouted(good, 1);
  EXPECT_THROW((void)unrouted.run(), InvalidArgument);

  ServingSim sim(good, 1);
  sim.set_read_router(
      [](const std::string&) { return placement::NodeId{0}; });
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), InvalidArgument);
}

TEST(ServingScenarios, FlashCrowdPricesRepairIntoTheQueues) {
  auto store = make_store<kv::ChKvStore>(923, 2);
  for (int n = 0; n < 5; ++n) store.add_node();
  ServingSpec spec = uniform_spec(400, 3000);
  spec.arrival_rate_rps = 40000.0;
  spec.write_fraction = 0.1;
  const FlashCrowdOutcome out =
      run_flash_crowd(store, spec, kv::ReadPolicy::kLeastLoaded, 31, 3);
  EXPECT_EQ(store.backend().node_count(), 8u);
  EXPECT_GT(out.repair_work_us, 0.0);
  EXPECT_EQ(out.serving.issued, spec.requests);
  EXPECT_EQ(out.serving.completed + out.serving.failed, spec.requests);
  std::uint64_t repair_jobs = 0;
  for (const NodeServingStats& node : out.serving.nodes) {
    repair_jobs += node.repair_jobs;
  }
  EXPECT_GT(repair_jobs, 0u);
  // The phase mark at the join partitions the latency samples.
  EXPECT_EQ(out.serving.latency_before.count() +
                out.serving.latency_after.count(),
            out.serving.completed);
  EXPECT_GT(out.serving.latency_before.count(), 0u);
  EXPECT_GT(out.serving.latency_after.count(), 0u);
}

TEST(ServingScenarios, HotspotShiftConservesTheStream) {
  auto store = make_store<kv::HrwKvStore>(924, 2);
  for (int n = 0; n < 6; ++n) store.add_node();
  ServingSpec spec;
  spec.workload.distribution = KeyDistribution::kHotspot;
  spec.workload.key_count = 300;
  spec.requests = 3000;
  spec.arrival_rate_rps = 50000.0;
  const ServingOutcome outcome =
      run_hotspot_shift(store, spec, kv::ReadPolicy::kPrimary, 17);
  EXPECT_EQ(outcome.issued, spec.requests);
  EXPECT_EQ(outcome.completed, spec.requests);
  EXPECT_EQ(outcome.latency_before.count() + outcome.latency_after.count(),
            outcome.completed);
  EXPECT_GT(outcome.latency_after.count(), 0u);
}

TEST(ServingScenarios, LeastLoadedRoutesAroundTheSlowNode) {
  // The gray-failure scenario the read policies exist for: the busiest
  // primary runs 8x slow but keeps answering. Primary routing piles
  // its keys' reads onto the crawling node; least-loaded probes the
  // live queue depths and walks around it.
  ServingSpec spec = uniform_spec(300, 6000);
  spec.arrival_rate_rps = 60000.0;
  SlowNodeOutcome primary = [&] {
    auto store = make_store<kv::MaglevKvStore>(925, 3);
    for (int n = 0; n < 6; ++n) store.add_node();
    return run_slow_node(store, spec, kv::ReadPolicy::kPrimary, 19, 8.0);
  }();
  SlowNodeOutcome least_loaded = [&] {
    auto store = make_store<kv::MaglevKvStore>(925, 3);
    for (int n = 0; n < 6; ++n) store.add_node();
    return run_slow_node(store, spec, kv::ReadPolicy::kLeastLoaded, 19, 8.0);
  }();
  EXPECT_EQ(primary.slow_node, least_loaded.slow_node);
  EXPECT_LT(least_loaded.serving.p99(), primary.serving.p99());
}

// --- fault-plan serving (cluster::FaultPlan wired into the sim) ------

TEST(ServingFaults, ReadsFailOverPastACrashedReplicaWindow) {
  // One node crashes for the middle of the run. With the full replica
  // set as candidates, every read fails over to a live copy: nothing
  // fails, and the phase split brackets the window cleanly.
  auto store = make_store<kv::ChKvStore>(931, 3);
  for (int n = 0; n < 6; ++n) store.add_node();
  ServingSpec spec = uniform_spec(300, 6000);
  spec.arrival_rate_rps = 60000.0;

  cluster::FaultPlan plan(5);
  ServingSim probe(spec, /*seed=*/7);
  const cluster::SimTime mid = 0.5 * probe.expected_duration_us();
  plan.add_crash_window(2, mid, mid + 0.25 * probe.expected_duration_us());

  const ServingOutcome outcome =
      run_faulty_serving(store, spec, plan, mid, /*seed=*/7);
  EXPECT_EQ(outcome.issued, spec.requests);
  EXPECT_EQ(outcome.failed, 0u);  // k=3: always a live candidate
  EXPECT_EQ(outcome.completed, spec.requests);
  EXPECT_EQ(outcome.issued_before + outcome.issued_after, outcome.issued);
  EXPECT_DOUBLE_EQ(outcome.availability_before(), 1.0);
  EXPECT_DOUBLE_EQ(outcome.availability_after(), 1.0);
}

TEST(ServingFaults, PartitionedMinorityFailsItsUnreplicatedReads) {
  // k=1 leaves no failover candidate: reads owned by the partitioned
  // node fail during the episode and only then - availability dips
  // inside the fault window, stays 1.0 outside it.
  auto store = make_store<kv::ChKvStore>(932, 1);
  for (int n = 0; n < 6; ++n) store.add_node();
  ServingSpec spec = uniform_spec(300, 8000);
  spec.arrival_rate_rps = 60000.0;

  cluster::FaultPlan plan(5);
  ServingSim probe(spec, /*seed=*/8);
  const cluster::SimTime start = 0.4 * probe.expected_duration_us();
  const cluster::SimTime end = 0.7 * probe.expected_duration_us();
  plan.add_partition("minority", start, end, {1, 4});

  const ServingOutcome outcome =
      run_faulty_serving(store, spec, plan, start, /*seed=*/8);
  EXPECT_EQ(outcome.issued, spec.requests);
  EXPECT_GT(outcome.failed, 0u);
  EXPECT_EQ(outcome.failed_before, 0u);  // the window starts at the mark
  EXPECT_DOUBLE_EQ(outcome.availability_before(), 1.0);
  EXPECT_LT(outcome.availability_after(), 1.0);
  EXPECT_EQ(outcome.completed + outcome.failed, outcome.issued);
}

TEST(ServingFaults, WritesQueueAgainstTheDeadlineOrFail) {
  // A write-only stream against a replica that is down for a while:
  // with a generous deadline the legs queue until recovery and every
  // request completes; with no deadline the same writes fail.
  const auto run_with_deadline = [](cluster::SimTime deadline) {
    auto store = make_store<kv::ChKvStore>(933, 2);
    for (int n = 0; n < 4; ++n) store.add_node();
    ServingSpec spec = uniform_spec(200, 3000);
    spec.arrival_rate_rps = 60000.0;
    spec.write_fraction = 1.0;
    spec.write_deadline_us = deadline;

    cluster::FaultPlan plan(6);
    ServingSim probe(spec, /*seed=*/9);
    const cluster::SimTime horizon = probe.expected_duration_us();
    plan.add_crash_window(1, 0.2 * horizon, 0.5 * horizon);
    return run_faulty_serving(store, spec, plan, 0.2 * horizon, /*seed=*/9);
  };

  const ServingOutcome patient = run_with_deadline(1e9);
  EXPECT_EQ(patient.failed, 0u);
  EXPECT_EQ(patient.completed, patient.issued);

  const ServingOutcome strict = run_with_deadline(0.0);
  EXPECT_GT(strict.failed, 0u);
  EXPECT_EQ(strict.failed_before, 0u);
  EXPECT_LT(strict.availability_after(), 1.0);
  EXPECT_EQ(strict.completed + strict.failed, strict.issued);
}

}  // namespace
}  // namespace cobalt::sim
