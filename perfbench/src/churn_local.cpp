// perfbench/src/churn_local.cpp
//
// Workload `churn_local`: the local approach at k=3 with rack spread
// over a cluster::Topology and a ProtocolDriver priced on it, a key
// population that fits in cache, and a long fixed script of joins,
// drains and single-node crashes inside a band of cluster sizes, with
// short uniform get/put bursts between events. Membership events
// dominate: the DHT's vnode and group work, dirty-range planning, the
// relocation flush, spread-filtered repair and protocol recording.
//
// A run is whole rounds of {set up, run the script}. The script and
// the key names do not depend on the seed (the seed picks the burst
// keys and the written values, which never move placement), so every
// round makes the same membership decisions and every event check
// gives the same answer in every run.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cluster/protocol_driver.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "hashing/hash.hpp"
#include "kv/store.hpp"
#include "layers.hpp"
#include "sim/workload.hpp"

namespace perfbench {
namespace {

using cobalt::kv::KvStore;
using cobalt::placement::NodeId;
using Driver =
    cobalt::cluster::ProtocolDriver<cobalt::placement::LocalDhtBackend>;

constexpr std::size_t kKeys = 16384;
constexpr std::size_t kRacks = 4;
constexpr std::size_t kStartNodes = 12;
constexpr std::size_t kMinNodes = 5;
constexpr std::size_t kMaxNodes = 20;
// Per round: up to the top of the band, down to the bottom, back.
constexpr std::size_t kEvents =
    (kMaxNodes - kStartNodes) + (kMaxNodes - kMinNodes) +
    (kStartNodes - kMinNodes);
constexpr std::size_t kBurst = 1024;  // get/put ops after each event
constexpr std::size_t kK = 3;
constexpr std::uint64_t kScriptSeed = 0x5c41b7;

enum class Kind { kJoin, kDrain, kCrash };

/// One round's cluster: topology, store and driver, loaded.
struct Cluster {
  cobalt::cluster::Topology topology;
  std::unique_ptr<KvStore> store;
  std::unique_ptr<Driver> driver;

  /// Puts the node the store will create next on its rack.
  void place_next() {
    const auto id = static_cast<NodeId>(store->backend().node_slot_count());
    topology.assign(id, static_cast<cobalt::cluster::Topology::RackId>(
                            id % kRacks));
  }

  [[nodiscard]] std::vector<NodeId> live() const {
    std::vector<NodeId> nodes;
    for (NodeId n = 0; n < store->backend().node_slot_count(); ++n) {
      if (store->backend().is_live(n)) nodes.push_back(n);
    }
    return nodes;
  }
};

std::unique_ptr<Cluster> set_up(const std::vector<std::string>& keys,
                                const std::vector<std::uint32_t>& version,
                                std::uint64_t seed, cobalt::ThreadPool* pool) {
  auto c = std::make_unique<Cluster>();
  cobalt::dht::Config config;
  config.pmin = 32;
  config.vmin = 8;
  config.seed = 42;
  c->store = std::make_unique<KvStore>(
      KvStore::Options{config, 1},
      cobalt::placement::ReplicationSpec{
          kK, cobalt::placement::SpreadPolicy::kRack});
  c->store->set_topology(&c->topology);
  c->store->set_thread_pool(pool);
  Driver::Options options;
  options.topology = &c->topology;
  c->driver = std::make_unique<Driver>(*c->store, options);
  for (std::size_t n = 0; n < kStartNodes; ++n) {
    c->place_next();
    c->store->add_node();
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    c->store->put(keys[i], value_of(seed, i, version[i]));
  }
  return c;
}

/// The benchmark's keys with their hashes and the shadow of each key's
/// last written version.
struct Population {
  std::vector<std::string> keys;
  std::vector<HashIndex> hashes;
  std::vector<std::uint32_t> version;
};

/// Checks the store after one event (see the README): values read
/// back, replica sets are fresh rack-spread sets of live nodes led by
/// owner_of, the ProtocolDriver agrees with stats(), and a single
/// crash loses nothing. Updates `owners` and returns how many keys
/// changed owner.
std::uint64_t check_event(const Cluster& c, Kind kind,
                          const cobalt::kv::StatsSnapshot& before,
                          const cobalt::kv::StatsSnapshot& after,
                          const Population& pop, std::vector<NodeId>& owners,
                          std::uint64_t seed, Result& out) {
  const KvStore& store = *c.store;
  if (kind == Kind::kCrash &&
      after.replication.keys_lost != before.replication.keys_lost) {
    out.fail_check("churn_local lost keys on a single-node crash");
  }
  const cobalt::cluster::ProtocolTotals& pt = c.driver->totals();
  if (pt.handover_keys_total != after.relocation.keys_moved_total ||
      pt.handover_keys_cross != after.relocation.keys_moved_across_nodes ||
      pt.rebucket_keys != after.relocation.keys_rebucketed ||
      pt.repair_copies != after.replication.keys_rereplicated ||
      pt.keys_lost != after.replication.keys_lost) {
    out.fail_check("churn_local ProtocolDriver totals differ from stats()");
  }
  std::vector<bool> rack_live(kRacks, false);
  for (const NodeId n : c.live()) rack_live[n % kRacks] = true;
  const auto live_racks = static_cast<std::size_t>(
      std::count(rack_live.begin(), rack_live.end(), true));
  const cobalt::placement::ReplicationSpec spec = store.replication_spec();
  std::vector<NodeId> fresh;
  std::uint64_t owner_moves = 0;
  for (std::size_t i = 0; i < pop.keys.size(); ++i) {
    const std::string& key = pop.keys[i];
    const std::optional<std::string> got = store.get(key);
    if (!got || *got != value_of(seed, i, pop.version[i])) {
      out.fail_check("churn_local key " + key +
                     " does not read back after an event");
    }
    const NodeId owner = store.backend().owner_of(pop.hashes[i]);
    if (owner != owners[i]) ++owner_moves;
    owners[i] = owner;
    const std::vector<NodeId> held = store.replicas_of(key);
    store.backend().replica_set_into(pop.hashes[i], spec, fresh);
    bool ok = held == fresh && held.size() == kK && held[0] == owner;
    for (std::size_t r = 0; ok && r < held.size(); ++r) {
      ok = store.backend().is_live(held[r]);
      for (std::size_t q = 0; ok && q < r; ++q) {
        ok = held[q] != held[r] &&
             (live_racks < kK || held[q] % kRacks != held[r] % kRacks);
      }
    }
    if (!ok) {
      out.fail_check("churn_local replicas_of(" + key +
                     ") is not a fresh spread replica set of live nodes");
    }
  }
  return owner_moves;
}

}  // namespace

Result run_churn_local(const RunConfig& config) {
  Result out;
  cobalt::sim::WorkloadSpec spec;  // uniform
  spec.key_count = kKeys;
  spec.prefix = "churn/";
  const cobalt::sim::WorkloadGenerator names(spec, 0);
  Population pop;
  for (std::size_t i = 0; i < kKeys; ++i) {
    pop.keys.push_back(names.key_at(i));
    pop.hashes.push_back(cobalt::hashing::xxh64(pop.keys.back()));
  }
  pop.version.assign(kKeys, 0);
  const std::vector<std::string>& keys = pop.keys;
  std::vector<std::uint32_t>& version = pop.version;
  std::unique_ptr<cobalt::ThreadPool> pool;
  if (config.threads != 0) {
    pool = std::make_unique<cobalt::ThreadPool>(config.threads);
  }
  cobalt::Xoshiro256 burst_rng(cobalt::derive_seed(config.seed, 3, 0));

  EndToEnd e2e;
  e2e.keys = kKeys;
  std::uint64_t events = 0, refused = 0, mismatched = 0;
  std::uint64_t kind_count[3] = {0, 0, 0};
  std::uint64_t failed_per_round = 0;
  std::string mismatch_note;
  EventLayers layers;
  PhaseSink phases({});
  std::unique_ptr<Cluster> last;
  std::vector<NodeId> owners(kKeys);
  std::vector<std::optional<std::string>> results(kBurst);
  std::vector<std::uint32_t> burst_index(kBurst);
  std::vector<std::string> burst_value(kBurst);
  std::vector<std::uint32_t> burst_version(kBurst);

  const double start = now_ns();
  std::size_t rounds = 0;
  while (rounds == 0 || now_ns() - start < config.seconds * 1e9) {
    last.reset();
    const std::uint64_t heap0 = heap_bytes();
    e2e.host.refresh();
    const double f0 = e2e.host.factor();
    const double t0 = now_ns();
    std::unique_ptr<Cluster> c = set_up(keys, version, config.seed, pool.get());
    const double took_s = (now_ns() - t0) * 1e-9;
    e2e.host.refresh();
    e2e.setup_s.add(took_s * 0.5 * (f0 + e2e.host.factor()));
    if (rounds == 0) e2e.heap_delta = heap_bytes() - heap0;
    KvStore& store = *c->store;
    phases.retarget({c->driver.get()});
    if (config.trace) store.set_event_sink(&phases);
    for (std::size_t i = 0; i < kKeys; ++i) {
      owners[i] = store.backend().owner_of(pop.hashes[i]);
    }
    cobalt::Xoshiro256 script(kScriptSeed);
    std::uint64_t round_failed = 0;

    for (std::size_t e = 0; e < kEvents; ++e) {
      // The script sweeps the band: joins up to kMaxNodes, leaves down
      // to kMinNodes (drains and crashes alternating), joins back to the
      // start. Victims come from the fixed script stream.
      const std::vector<NodeId> live = c->live();
      Kind kind = Kind::kJoin;
      if (e >= kMaxNodes - kStartNodes &&
          e < kMaxNodes - kStartNodes + kMaxNodes - kMinNodes) {
        kind = (e - (kMaxNodes - kStartNodes)) % 2 == 0 ? Kind::kDrain
                                                         : Kind::kCrash;
      }
      const NodeId victim = live[script.next_below(live.size())];

      if (kind == Kind::kJoin) c->place_next();
      const EventCounters before{store.stats(), c->driver->recorded().size()};
      e2e.host.sample();
      const double ef = e2e.host.factor();
      const double et0 = now_ns();
      switch (kind) {
        case Kind::kJoin:
          store.add_node();
          break;
        case Kind::kDrain:
          if (!store.remove_node(victim)) ++refused;
          break;
        case Kind::kCrash: {
          const NodeId batch[] = {victim};
          store.fail_nodes(batch);
          break;
        }
      }
      const double took_ms = (now_ns() - et0) * 1e-6 * ef;
      e2e.event_ms.add(took_ms);
      if (kind == Kind::kJoin) e2e.join_ms.add(took_ms);
      ++events;
      ++kind_count[static_cast<int>(kind)];
      const EventCounters after{store.stats(), c->driver->recorded().size()};
      layers.add(before, after);
      if (config.trace) {
        layers.dirty_ranges +=
            store.backend()
                .replica_dirty_ranges(store.replication_spec())
                .size();
      }

      // Event checks, outside timing.
      const std::uint64_t owner_moves =
          check_event(*c, kind, before.stats, after.stats, pop, owners,
                      config.seed, out);
      const std::uint64_t counted =
          after.stats.relocation.keys_moved_across_nodes -
          before.stats.relocation.keys_moved_across_nodes;
      if (counted != owner_moves) {
        ++round_failed;
        if (mismatch_note.empty()) {
          mismatch_note =
              "event " + std::to_string(e) + " moved the owner of " +
              std::to_string(owner_moves) +
              " keys; keys_moved_across_nodes counted " +
              std::to_string(counted);
        }
      }

      // A short uniform get/put burst on the just-repaired index: odd
      // slots update, even slots read (and expect the version current
      // at that point of the burst).
      for (std::size_t b = 0; b < kBurst; ++b) {
        const auto i = static_cast<std::uint32_t>(burst_rng.next_below(kKeys));
        burst_index[b] = i;
        if (b % 2 == 1) {
          burst_value[b] = value_of(config.seed, i, ++version[i]);
        }
        burst_version[b] = version[i];
      }
      e2e.host.sample();
      const double bf = e2e.host.factor();
      const double burst_t0 = now_ns();
      for (std::size_t b = 0; b < kBurst; ++b) {
        const std::string& key = keys[burst_index[b]];
        const double bt0 = now_ns();
        if (b % 2 == 1) {
          store.put(key, std::move(burst_value[b]));
          e2e.put_ns.add((now_ns() - bt0) * bf);
        } else {
          results[b] = store.get(key);
          e2e.get_ns.add((now_ns() - bt0) * bf);
        }
      }
      e2e.serve_ns += (now_ns() - burst_t0) * bf;
      for (std::size_t b = 0; b < kBurst; b += 2) {
        const std::uint32_t i = burst_index[b];
        if (!results[b] ||
            *results[b] != value_of(config.seed, i, burst_version[b])) {
          out.fail_check("churn_local burst get of " + keys[i] +
                         " does not return its last written value");
        }
      }
      e2e.requests += kBurst;
    }
    if (rounds == 0) {
      failed_per_round = round_failed;
    } else if (round_failed != failed_per_round) {
      out.fail_check("churn_local rounds disagree on the owner-diff check");
    }
    mismatched += round_failed;
    last = std::move(c);
    ++rounds;
  }

  out.attempted = e2e.requests + events;
  out.failed = mismatched;
  out.notes.push_back(
      "churn_local: " +
      (pool ? std::to_string(config.threads) + "-thread pool, "
            : std::string("serial, ")) +
      std::to_string(rounds) + " rounds, " +
      std::to_string(events) + " events (" + std::to_string(kind_count[0]) +
      " joins, " + std::to_string(kind_count[1]) + " drains, " +
      std::to_string(kind_count[2]) + " crashes; " +
      std::to_string(refused) +
      " drains refused by the local approach, a legitimate answer), " +
      std::to_string(e2e.requests) + " burst ops");
  if (mismatched != 0) {
    out.notes.push_back(
        "churn_local FAULT: " + std::to_string(mismatched) +
        " events changed the owner of a different number of keys than "
        "keys_moved_across_nodes counted (DhtBackend reports buddy merges "
        "as on_rebucket); first: " +
        mismatch_note);
  }

  e2e.file(out, config.trace);
  if (!config.trace) return out;
  e2e.host.refresh();
  const double factor = e2e.host.factor();

  KvStore& store = *last->store;
  probe_point_layers(store, keys, spec, config.seed, factor, out);
  out.metric("kv.store.get_ns", e2e.get_ns.mean(), "ns");
  out.metric("kv.store.put_ns", e2e.put_ns.mean(), "ns");
  layers.report(phases.totals(), factor, out);
  out.metric("sim.serving.self_ns_per_request",
             probe_serving_self_ns(store, spec, config.seed) * factor,
             "ns");
  out.metric("sim.serving.repair_jobs", 0.0, "count");
  return out;
}

}  // namespace perfbench
