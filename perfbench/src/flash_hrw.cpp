// perfbench/src/flash_hrw.cpp
//
// Workload `flash_hrw`: an HrwBackend k=3 store is the routing plane of
// an open-loop sim::ServingSim. The sim sends hotspot keys, reads
// routed kLeastLoaded by probing queue depths, and a share of writes;
// a RepairTrafficSink turns the store's event batches into repair jobs
// in the node queues, and joins land mid-stream. The simulator's
// per-request path (event queue, node FIFOs, workload generator,
// replica-aware routing) does most of the work, and the joins run
// rendezvous top-k repair, which no other workload exercises.
//
// A run is whole rounds of {set up, serve one stream with its joins}.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cluster/protocol_driver.hpp"
#include "kv/store.hpp"
#include "layers.hpp"
#include "sim/serving.hpp"
#include "sim/workload.hpp"

namespace perfbench {
namespace {

using cobalt::kv::HrwKvStore;
using cobalt::placement::NodeId;
using Driver = cobalt::cluster::ProtocolDriver<cobalt::placement::HrwBackend>;

constexpr std::size_t kKeys = 100000;
constexpr std::size_t kNodes = 12;
constexpr std::size_t kJoins = 3;  // per round, at 1/4, 2/4, 3/4 of the stream
constexpr std::size_t kRequests = 200000;
constexpr std::size_t kK = 3;
constexpr std::uint64_t kSliceEvery = 4096;  // router calls per probe slice

struct Round {
  std::unique_ptr<HrwKvStore> store;
  std::unique_ptr<cobalt::sim::ServingSim> sim;
  std::unique_ptr<cobalt::sim::RepairTrafficSink> sink;
};

Round set_up(const cobalt::sim::ServingSpec& spec,
             const std::vector<std::string>& keys, std::uint64_t seed) {
  Round r;
  r.store = std::make_unique<HrwKvStore>(
      HrwKvStore::Options{}, cobalt::placement::ReplicationSpec{kK});
  for (std::size_t n = 0; n < kNodes; ++n) r.store->add_node();
  for (const std::string& key : keys) r.store->put(key, "v");
  r.sim = std::make_unique<cobalt::sim::ServingSim>(spec, seed);
  HrwKvStore* store = r.store.get();
  r.sink = std::make_unique<cobalt::sim::RepairTrafficSink>(
      *r.sim,
      [store](HashIndex index) { return store->backend().owner_of(index); });
  r.store->set_event_sink(r.sink.get());
  return r;
}

}  // namespace

Result run_flash_hrw(const RunConfig& config) {
  Result out;
  cobalt::sim::ServingSpec spec;
  spec.workload.distribution = cobalt::sim::KeyDistribution::kHotspot;
  spec.workload.key_count = kKeys;
  spec.workload.prefix = "f" + std::to_string(config.seed % 100000) + "/";
  spec.requests = kRequests;
  spec.arrival_rate_rps = 100000.0;
  spec.write_fraction = 0.1;
  const cobalt::sim::WorkloadGenerator names(spec.workload, 0);
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kKeys; ++i) keys.push_back(names.key_at(i));

  EndToEnd e2e;  // serve_ns: ServingSim::run minus joins and checks
  e2e.keys = kKeys;
  double router_ns = 0.0;
  std::uint64_t repair_jobs = 0, writes_total = 0;
  EventLayers layers;
  PhaseSink phases({});
  Round last;

  const double start = now_ns();
  std::size_t rounds = 0;
  while (rounds == 0 || now_ns() - start < config.seconds * 1e9) {
    last = {};
    const std::uint64_t heap0 = heap_bytes();
    e2e.host.refresh();
    const double f0 = e2e.host.factor();
    const double t0 = now_ns();
    Round round =
        set_up(spec, keys, cobalt::derive_seed(config.seed, rounds, 5));
    const double took_s = (now_ns() - t0) * 1e-9;
    e2e.host.refresh();
    e2e.setup_s.add(took_s * 0.5 * (f0 + e2e.host.factor()));
    if (rounds == 0) e2e.heap_delta = heap_bytes() - heap0;
    HrwKvStore& store = *round.store;
    cobalt::sim::ServingSim& sim = *round.sim;
    std::unique_ptr<Driver> driver;
    if (config.trace) {
      // The traced run also prices the joins on a ProtocolDriver, so
      // the recording layer is measured on this backend too.
      driver = std::make_unique<Driver>(store);
      phases.retarget({round.sink.get(), driver.get()});
      store.set_event_sink(&phases);
    }

    std::vector<std::uint64_t> legs;
    std::uint64_t reads = 0, writes = 0, write_seq = 0;
    // Wall time of sim.run() outside the joins, the checks and the
    // probe slices, scaled segment by segment: every kSliceEvery router
    // calls closes a segment at the current factor and takes a slice.
    double excluded_ns = 0.0, segment_t0 = 0.0, segment_excluded = 0.0;
    double scaled_serve_ns = 0.0;
    std::uint64_t routed = 0;
    const auto close_segment = [&] {
      const double t = now_ns();
      scaled_serve_ns += (t - segment_t0 - (excluded_ns - segment_excluded)) *
                         e2e.host.factor();
      e2e.host.sample();
      const double t1 = now_ns();
      excluded_ns += t1 - t;
      segment_t0 = t1;
      segment_excluded = excluded_ns;
    };
    const auto count_leg = [&legs](NodeId node) {
      if (legs.size() <= node) legs.resize(node + 1, 0);
      ++legs[node];
    };
    sim.set_read_router([&](const std::string& key) {
      const double rt0 = now_ns();
      const NodeId node = store.read_node_of(
          key, cobalt::kv::ReadPolicy::kLeastLoaded,
          [&sim](NodeId id) { return sim.queue_depth(id); });
      const double rt1 = now_ns();
      e2e.get_ns.add((rt1 - rt0) * e2e.host.factor());
      router_ns += (rt1 - rt0) * e2e.host.factor();
      const std::vector<NodeId> held = store.replicas_of(key);
      bool member = false;
      for (const NodeId n : held) member = member || n == node;
      if (!member || !store.backend().is_live(node)) {
        out.fail_check("flash_hrw read of " + key +
                       " routed outside its live replica set");
      }
      ++reads;
      count_leg(node);
      excluded_ns += now_ns() - rt1;
      if (++routed % kSliceEvery == 0) close_segment();
      return node;
    });
    sim.set_write_router([&](const std::string& key,
                             std::vector<NodeId>& replicas) {
      const std::string value = "w" + std::to_string(++write_seq);
      std::string copy = value;
      const double wt0 = now_ns();
      store.put(key, std::move(copy));
      replicas = store.replicas_of(key);
      const double wt1 = now_ns();
      e2e.put_ns.add((wt1 - wt0) * e2e.host.factor());
      router_ns += (wt1 - wt0) * e2e.host.factor();
      const std::optional<std::string> got = store.get(key);
      if (!got || *got != value || replicas.size() != kK) {
        out.fail_check("flash_hrw write of " + key + " does not read back");
      }
      ++writes;
      for (const NodeId n : replicas) count_leg(n);
      excluded_ns += now_ns() - wt1;
      if (++routed % kSliceEvery == 0) close_segment();
    });
    const double duration = sim.expected_duration_us();
    for (std::size_t j = 1; j <= kJoins; ++j) {
      sim.schedule(duration * static_cast<double>(j) / (kJoins + 1), [&] {
        const EventCounters before{store.stats(),
                                   driver ? driver->recorded().size() : 0};
        const double jt0 = now_ns();
        store.add_node();
        const double took = now_ns() - jt0;
        e2e.join_ms.add(took * 1e-6 * e2e.host.factor());
        e2e.event_ms.add(took * 1e-6 * e2e.host.factor());
        layers.add(before,
                   {store.stats(), driver ? driver->recorded().size() : 0});
        if (config.trace) {
          layers.dirty_ranges +=
              store.backend().replica_dirty_ranges(store.replication_spec())
                  .size();
        }
        excluded_ns += now_ns() - jt0;
      });
    }

    e2e.host.refresh();
    segment_t0 = now_ns();
    const cobalt::sim::ServingOutcome outcome = sim.run();
    close_segment();
    e2e.serve_ns += scaled_serve_ns;

    // Outcome checks against the routers' own counts.
    if (outcome.issued != kRequests || outcome.completed != kRequests ||
        outcome.failed != 0) {
      out.fail_check("flash_hrw issued " + std::to_string(outcome.issued) +
                     ", completed " + std::to_string(outcome.completed));
    }
    std::uint64_t served = 0;
    for (std::size_t n = 0; n < outcome.nodes.size(); ++n) {
      served += outcome.nodes[n].requests;
      repair_jobs += outcome.nodes[n].repair_jobs;
      if (outcome.nodes[n].requests != (n < legs.size() ? legs[n] : 0)) {
        out.fail_check("flash_hrw node " + std::to_string(n) +
                       " served a different leg count than routed");
      }
    }
    if (served != reads + kK * writes || reads + writes != kRequests) {
      out.fail_check("flash_hrw request legs do not sum to reads + k x writes");
    }
    e2e.requests += kRequests;
    writes_total += writes;
    driver.reset();
    last = std::move(round);
    ++rounds;
  }

  out.attempted = e2e.requests + e2e.join_ms.size();
  out.notes.push_back("flash_hrw: " + std::to_string(rounds) + " rounds, " +
                      std::to_string(e2e.requests) + " requests (" +
                      std::to_string(writes_total) + " writes), " +
                      std::to_string(e2e.join_ms.size()) + " joins");

  e2e.file(out, config.trace);
  if (!config.trace) return out;
  e2e.host.refresh();
  const double factor = e2e.host.factor();

  HrwKvStore& store = *last.store;
  cobalt::sim::WorkloadGenerator sample(spec.workload, config.seed);
  std::vector<std::string> probe_keys;
  for (std::size_t i = 0; i < 65536; ++i) {
    probe_keys.push_back(sample.next_key());
  }
  probe_point_layers(store, probe_keys, spec.workload, config.seed, factor,
                     out);
  out.metric("kv.store.get_ns",
             ns_per_call(probe_keys.size(),
                         [&](std::size_t i) {
                           return static_cast<std::uint64_t>(
                               store.get(probe_keys[i]).has_value());
                         }) *
                 factor,
             "ns");
  out.metric("kv.store.put_ns", e2e.put_ns.mean(), "ns");
  layers.report(phases.totals(), factor, out);
  out.metric("sim.serving.self_ns_per_request",
             (e2e.serve_ns - router_ns) / static_cast<double>(e2e.requests),
             "ns");
  out.metric("sim.serving.repair_jobs",
             static_cast<double>(repair_jobs) / static_cast<double>(rounds),
             "count");
  return out;
}

}  // namespace perfbench
