// perfbench/src/serve.cpp
//
// Workload `serve`: the paper's local approach (kv::KvStore) at k=3,
// no spread, a ProtocolDriver attached, and a key population about
// twice the host's last-level cache. One closed-loop client sends a
// Zipf, read-heavy mix of reads, updates and fresh inserts; a few joins
// land far apart, each drained again. The foreground path (hash, shard
// lookup, bucket insert and split, Store::get/put) does nearly all the
// work.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cluster/protocol_driver.hpp"
#include "common/rng.hpp"
#include "kv/store.hpp"
#include "layers.hpp"
#include "sim/workload.hpp"

namespace perfbench {
namespace {

using cobalt::kv::KvStore;
using Driver =
    cobalt::cluster::ProtocolDriver<cobalt::placement::LocalDhtBackend>;

constexpr std::size_t kKeys = 1'000'000;  // resident at set-up
// 20 nodes form two groups of the local approach, and every join is
// drained again half a slot later: all joins are the same 20 -> 21
// handover (no partition split wave), so their median is steady.
constexpr std::size_t kNodes = 20;
constexpr std::size_t kJoins = 15;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kBatch = 4096;
// The joins are placed by batches served, not by wall time: inserts
// grow the population and split shards, and each join's cost follows
// that growth, so every run of one length must meet its joins at the
// same point whatever the host's speed. 60 batches per second of
// --seconds (the loop, checks included, runs ~115) puts them all in
// the first ~half of the run.
constexpr double kSlotBatchesPerSecond = 60.0 / kJoins;
// Op mix per 100: reads, then updates, then inserts.
constexpr std::uint64_t kReadPct = 85;
constexpr std::uint64_t kUpdatePct = 12;

KvStore::Options store_options() {
  cobalt::dht::Config config;
  config.pmin = 32;
  config.vmin = 8;
  config.seed = 42;
  return {config, 1};
}

struct Loaded {
  std::unique_ptr<KvStore> store;
  std::unique_ptr<Driver> driver;
};

Loaded set_up(const std::vector<std::string>& keys, std::uint64_t seed) {
  Loaded out;
  out.store = std::make_unique<KvStore>(
      store_options(), cobalt::placement::ReplicationSpec{3});
  out.driver = std::make_unique<Driver>(*out.store);
  for (std::size_t n = 0; n < kNodes; ++n) out.store->add_node();
  for (std::size_t i = 0; i < kKeys; ++i) {
    out.store->put(keys[i], value_of(seed, i, 0));
  }
  return out;
}

struct Op {
  std::uint32_t index;    // into the set-up keys; unused by inserts
  std::uint32_t version;  // expected on reads, written on updates
  enum Kind : std::uint8_t { kGet, kUpdate, kInsert } kind;
};

}  // namespace

Result run_serve(const RunConfig& config) {
  Result out;
  cobalt::sim::WorkloadSpec spec;
  spec.distribution = cobalt::sim::KeyDistribution::kZipf;
  spec.key_count = kKeys;
  spec.prefix = "s" + std::to_string(config.seed % 100000) + "/";
  const cobalt::sim::WorkloadGenerator names(spec, 0);
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) keys.push_back(names.key_at(i));

  // Set up kSetups times; the first one's heap delta is bytes_per_key
  // (identical allocations every run), the last one serves.
  EndToEnd e2e;
  e2e.keys = kKeys;
  Loaded loaded;
  for (std::size_t s = 0; s < kSetups; ++s) {
    loaded = {};
    const std::uint64_t heap0 = heap_bytes();
    e2e.host.refresh();
    const double f0 = e2e.host.factor();
    const double t0 = now_ns();
    loaded = set_up(keys, config.seed);
    const double took_s = (now_ns() - t0) * 1e-9;
    e2e.host.refresh();
    e2e.setup_s.add(took_s * 0.5 * (f0 + e2e.host.factor()));
    if (s == 0) e2e.heap_delta = heap_bytes() - heap0;
  }
  KvStore& store = *loaded.store;
  Driver& driver = *loaded.driver;
  PhaseSink phases({&driver});
  if (config.trace) store.set_event_sink(&phases);

  cobalt::sim::WorkloadGenerator zipf(spec,
                                      cobalt::derive_seed(config.seed, 1, 0));
  cobalt::Xoshiro256 mix(cobalt::derive_seed(config.seed, 2, 0));
  std::vector<std::uint32_t> version(kKeys, 0);
  std::size_t population = kKeys;

  e2e.get_ns.reserve(1u << 24);
  e2e.put_ns.reserve(1u << 22);
  std::vector<Op> batch(kBatch);
  std::vector<std::string> values(kBatch);
  std::vector<std::string> fresh_keys(kBatch);
  std::vector<std::optional<std::string>> results(kBatch);
  EventLayers layers;
  std::uint64_t read_checks = 0;

  const double start = now_ns();
  const double run_ns = config.seconds * 1e9;
  const double slot = std::max(1.0, config.seconds * kSlotBatchesPerSecond);
  std::size_t batches = 0;
  std::size_t joins = 0, drains = 0;
  cobalt::placement::NodeId joined = 0;
  while (true) {
    // Membership: join a quarter into each slot of batches, drain that
    // node again three quarters in.
    const auto served = static_cast<double>(batches);
    const bool join_due =
        joins < kJoins && drains == joins &&
        served >= (static_cast<double>(joins) + 0.25) * slot;
    const bool drain_due =
        drains < joins &&
        served >= (static_cast<double>(drains) + 0.75) * slot;
    if (join_due || drain_due) {
      const EventCounters before{store.stats(), driver.recorded().size()};
      const double f = e2e.host.factor();
      const double t0 = now_ns();
      if (join_due) {
        joined = store.add_node();
      } else if (!store.remove_node(joined)) {
        out.fail_check("serve drain of a just-joined node was refused");
      }
      const double took_ms = (now_ns() - t0) * 1e-6 * f;
      e2e.event_ms.add(took_ms);
      if (join_due) {
        e2e.join_ms.add(took_ms);
        ++joins;
      } else {
        ++drains;
      }
      layers.add(before, {store.stats(), driver.recorded().size()});
      if (config.trace) {
        layers.dirty_ranges +=
            store.backend().replica_dirty_ranges(store.replication_spec())
                .size();
      }
      continue;
    }
    if (now_ns() - start >= run_ns && drains == kJoins) break;
    // Generate the batch outside timing, advancing the shadow.
    for (std::size_t b = 0; b < kBatch; ++b) {
      const std::uint64_t roll = mix.next_below(100);
      Op& op = batch[b];
      if (roll < kReadPct + kUpdatePct) {
        op.index = static_cast<std::uint32_t>(zipf.next_index());
        op.kind = roll < kReadPct ? Op::kGet : Op::kUpdate;
        if (op.kind == Op::kUpdate) {
          values[b] = value_of(config.seed, op.index, ++version[op.index]);
        }
        op.version = version[op.index];
      } else {
        op.kind = Op::kInsert;
        fresh_keys[b] = spec.prefix + std::to_string(population);
        values[b] = value_of(config.seed, population++, 0);
      }
    }
    const double f = e2e.host.factor();
    const double batch_t0 = now_ns();
    for (std::size_t b = 0; b < kBatch; ++b) {
      const Op& op = batch[b];
      const double t0 = now_ns();
      if (op.kind == Op::kGet) {
        results[b] = store.get(keys[op.index]);
        e2e.get_ns.add((now_ns() - t0) * f);
      } else {
        store.put(op.kind == Op::kInsert ? fresh_keys[b] : keys[op.index],
                  std::move(values[b]));
        e2e.put_ns.add((now_ns() - t0) * f);
      }
    }
    e2e.serve_ns += (now_ns() - batch_t0) * f;
    e2e.requests += kBatch;
    ++batches;
    e2e.host.sample();
    // Check every read against the shadow, outside timing.
    for (std::size_t b = 0; b < kBatch; ++b) {
      const Op& op = batch[b];
      if (op.kind != Op::kGet) continue;
      ++read_checks;
      if (!results[b] ||
          *results[b] != value_of(config.seed, op.index, op.version)) {
        out.fail_check("serve get of key " + keys[op.index] +
                       " does not return its last written value");
      }
    }
  }

  // End-of-run accounting checks against the benchmark's own counts.
  if (store.size() != population) {
    out.fail_check("serve size() " + std::to_string(store.size()) +
                   " != keys written " + std::to_string(population));
  }
  std::uint64_t primaries = 0;
  for (const std::size_t n : store.keys_per_node()) primaries += n;
  if (primaries != store.size()) {
    out.fail_check("serve keys_per_node() does not sum to size()");
  }
  std::uint64_t copies = 0;
  for (const std::size_t n : store.replica_copies_per_node()) copies += n;
  if (copies != 3 * store.size()) {
    out.fail_check("serve replica_copies_per_node() != 3 x size()");
  }

  out.attempted = e2e.requests + joins + drains;
  out.notes.push_back("serve: " + std::to_string(e2e.requests) + " ops (" +
                      std::to_string(read_checks) + " reads checked), " +
                      std::to_string(joins) + " joins and " +
                      std::to_string(drains) + " drains, population " +
                      std::to_string(population));

  e2e.file(out, config.trace);
  if (!config.trace) return out;
  e2e.host.refresh();
  const double factor = e2e.host.factor();

  std::vector<std::string> probe_keys;
  for (std::size_t i = 0; i < 65536; ++i) {
    probe_keys.push_back(keys[zipf.next_index()]);
  }
  probe_point_layers(store, probe_keys, spec, config.seed, factor, out);
  out.metric("kv.store.get_ns", e2e.get_ns.mean(), "ns");
  out.metric("kv.store.put_ns", e2e.put_ns.mean(), "ns");
  layers.report(phases.totals(), factor, out);
  store.set_event_sink(&driver);
  out.metric("sim.serving.self_ns_per_request",
             probe_serving_self_ns(store, spec, config.seed) * factor,
             "ns");
  out.metric("sim.serving.repair_jobs", 0.0, "count");
  return out;
}

}  // namespace perfbench
