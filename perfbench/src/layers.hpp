// perfbench/src/layers.hpp
//
// The traced run's per-layer figures, taken from outside each layer:
// tight loops over the workload's own keys through the layers' public
// calls, and the event-phase and stats deltas a PhaseSink collects.
// Every workload reports every metric; a layer a workload never runs
// reports its count as 0 (cross-rack copies without a topology, repair
// jobs without a serving sim).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "hashing/hash.hpp"
#include "kv/store.hpp"
#include "sim/serving.hpp"
#include "sim/workload.hpp"

namespace perfbench {

/// Keeps a loop's result observable so the loop is not folded away.
inline void keep(std::uint64_t value) {
  static volatile std::uint64_t sink;
  sink = sink + value;
}

/// Mean ns per call of `body(i)` over i in [0, n), median of 5 passes.
template <typename Body>
double ns_per_call(std::size_t n, Body body) {
  Samples passes;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = now_ns();
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) acc += body(i);
    passes.add((now_ns() - t0) / static_cast<double>(n));
    keep(acc);
  }
  return passes.median();
}

/// Point-call costs of hashing, the shard index and placement over
/// `keys` (resident keys of the workload), and of the workload's key
/// generator under `spec`, scaled by the host-speed `factor`.
template <typename StoreT>
void probe_point_layers(const StoreT& store,
                        const std::vector<std::string>& keys,
                        const cobalt::sim::WorkloadSpec& spec,
                        std::uint64_t seed, double factor, Result& out) {
  std::vector<HashIndex> hashes;
  hashes.reserve(keys.size());
  for (const std::string& key : keys) {
    hashes.push_back(cobalt::hashing::xxh64(key));
  }
  const std::size_t n = keys.size();
  out.metric("hashing.xxh64_ns", ns_per_call(n, [&](std::size_t i) {
               return cobalt::hashing::xxh64(keys[i]);
             }) * factor,
             "ns");
  const cobalt::kv::ShardIndex& index = store.shard_index();
  out.metric("kv.shard_index.find_ns", ns_per_call(n, [&](std::size_t i) {
               const std::size_t shard = index.shard_of(hashes[i]);
               return static_cast<std::uint64_t>(
                   index.find_bucket(shard, hashes[i]) != nullptr);
             }) * factor,
             "ns");
  out.metric("kv.shard_index.shards",
             static_cast<double>(index.shard_count()), "count");
  const cobalt::placement::ReplicationSpec rspec = store.replication_spec();
  std::vector<cobalt::placement::NodeId> replicas;
  out.metric("placement.replica_set_ns", ns_per_call(n, [&](std::size_t i) {
               store.backend().replica_set_into(hashes[i], rspec, replicas);
               return static_cast<std::uint64_t>(replicas.front());
             }) * factor,
             "ns");
  out.metric("placement.owner_of_ns", ns_per_call(n, [&](std::size_t i) {
               return static_cast<std::uint64_t>(
                   store.backend().owner_of(hashes[i]));
             }) * factor,
             "ns");
  cobalt::sim::WorkloadGenerator generator(spec, seed);
  out.metric("sim.workload.next_key_ns", ns_per_call(n, [&](std::size_t) {
               return static_cast<std::uint64_t>(generator.next_key().size());
             }) * factor,
             "ns");
}

/// Stats and driver-log snapshot bracketing a stretch of events.
struct EventCounters {
  cobalt::kv::StatsSnapshot stats;
  std::uint64_t rounds = 0;
};

/// Accumulates the per-event layer figures of a traced run.
struct EventLayers {
  std::uint64_t events = 0;
  std::uint64_t dirty_ranges = 0;
  std::uint64_t copies = 0;
  std::uint64_t moved = 0;
  std::uint64_t cross_rack = 0;
  std::uint64_t visited = 0;
  std::uint64_t shards_total = 0;
  std::uint64_t rounds = 0;

  /// Adds one membership event: the deltas between the snapshots
  /// taken around it.
  void add(const EventCounters& before, const EventCounters& after) {
    const auto& b = before.stats.replication;
    const auto& a = after.stats.replication;
    ++events;
    copies += a.keys_rereplicated - b.keys_rereplicated;
    cross_rack +=
        a.keys_rereplicated_cross_rack - b.keys_rereplicated_cross_rack;
    visited += a.repair_shards_visited - b.repair_shards_visited;
    shards_total += a.repair_shards_total - b.repair_shards_total;
    moved += after.stats.relocation.keys_moved_across_nodes -
             before.stats.relocation.keys_moved_across_nodes;
    rounds += after.rounds - before.rounds;
  }

  /// Files the per-event figures; the phase times are scaled by the
  /// host-speed `factor`.
  void report(const PhaseTotals& phases, double factor, Result& out) const {
    const double e = events == 0 ? 1.0 : static_cast<double>(events);
    out.metric("placement.mutation_ms", phases.mutation_ms.mean() * factor,
               "ms");
    out.metric("placement.dirty_ranges_per_event",
               static_cast<double>(dirty_ranges) / e, "count");
    out.metric("kv.store.flush_ms", phases.flush_ms.mean() * factor, "ms");
    out.metric("kv.store.repair_ms", phases.repair_ms.mean() * factor, "ms");
    out.metric("kv.store.repair_visit_ratio",
               shards_total == 0 ? 0.0
                                 : static_cast<double>(visited) /
                                       static_cast<double>(shards_total),
               "ratio");
    out.metric("kv.store.copies_per_event", static_cast<double>(copies) / e,
               "count");
    out.metric("kv.store.moved_per_event", static_cast<double>(moved) / e,
               "count");
    out.metric("kv.store.cross_rack_copies",
               static_cast<double>(cross_rack) / e, "count");
    out.metric("cluster.protocol_driver.record_ms",
               phases.forward_ms.mean() * factor, "ms");
    out.metric("cluster.protocol_driver.rounds_per_event",
               static_cast<double>(rounds) / e, "count");
  }
};

/// Runs a short open-loop ServingSim over a loaded store (reads and
/// writes through the store's routers) and returns the simulator's own
/// wall time per request: ServingSim::run minus the router calls.
template <typename StoreT>
double probe_serving_self_ns(StoreT& store,
                             const cobalt::sim::WorkloadSpec& workload,
                             std::uint64_t seed) {
  cobalt::sim::ServingSpec spec;
  spec.workload = workload;
  spec.requests = 100000;
  spec.write_fraction = 0.1;
  cobalt::sim::ServingSim sim(spec, seed);
  double router_ns = 0.0;
  sim.set_read_router([&](const std::string& key) {
    const double t0 = now_ns();
    const cobalt::placement::NodeId node =
        store.read_node_of(key, cobalt::kv::ReadPolicy::kLeastLoaded,
                           [&sim](cobalt::placement::NodeId id) {
                             return sim.queue_depth(id);
                           });
    router_ns += now_ns() - t0;
    return node;
  });
  sim.set_write_router(
      [&](const std::string& key,
          std::vector<cobalt::placement::NodeId>& replicas) {
        const double t0 = now_ns();
        store.put(key, "probe");
        replicas = store.replicas_of(key);
        router_ns += now_ns() - t0;
      });
  const double t0 = now_ns();
  const cobalt::sim::ServingOutcome outcome = sim.run();
  const double total = now_ns() - t0;
  return (total - router_ns) / static_cast<double>(outcome.issued);
}

}  // namespace perfbench
