// Quickstart: the cobalt public API in one file.
//
// Builds a local-approach DHT (the paper's contribution), grows it,
// routes a few keys, inspects balance metrics, and stores data through
// the KV layer.
//
//   ./quickstart [--snodes=4] [--vnodes=40] [--pmin=16] [--vmin=8]

#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dht/invariants.hpp"
#include "dht/local_dht.hpp"
#include "kv/store.hpp"

int main(int argc, char** argv) {
  const cobalt::CliParser args(argc, argv);
  const std::size_t snodes = args.get_uint("snodes", 4);
  const std::size_t vnodes = args.get_uint("vnodes", 40);

  // 1. Configure the model: Pmin controls fine-grain balancement
  //    (partitions per vnode), Vmin controls group size - the
  //    quality/parallelism dial of the paper.
  cobalt::dht::Config config;
  config.pmin = args.get_uint("pmin", 16);
  config.vmin = args.get_uint("vmin", 8);
  config.seed = args.get_uint("seed", 2004);

  // 2. Build a DHT: register snodes (one per cluster node), then
  //    enroll vnodes. Every creation rebalances its victim group.
  cobalt::dht::LocalDht dht(config);
  std::vector<cobalt::dht::SNodeId> hosts;
  for (std::size_t s = 0; s < snodes; ++s) hosts.push_back(dht.add_snode());
  for (std::size_t v = 0; v < vnodes; ++v) {
    dht.create_vnode(hosts[v % hosts.size()]);
  }

  std::cout << "DHT with " << dht.snode_count() << " snodes, "
            << dht.vnode_count() << " vnodes, " << dht.group_count()
            << " groups\n"
            << "  sigma(Qv) = " << cobalt::format_fixed(dht.sigma_qv() * 100, 2)
            << "%   sigma(Qg) = "
            << cobalt::format_fixed(dht.sigma_qg() * 100, 2) << "%\n\n";

  // 3. Route hash indexes to their owning vnodes.
  for (const cobalt::HashIndex probe :
       {cobalt::HashIndex{0}, cobalt::HashIndex{1} << 63,
        cobalt::HashSpace::kMaxIndex}) {
    const auto hit = dht.lookup(probe);
    std::cout << "index " << probe << " -> vnode "
              << cobalt::dht::canonical_name(dht.vnode(hit.owner).snode,
                                             hit.owner)
              << " (partition " << hit.partition.to_string() << ", group "
              << dht.group(dht.group_of(hit.owner)).id.to_string() << ")\n";
  }

  // 4. Self-check: the paper's invariants hold at any point.
  cobalt::dht::check_invariants(dht);
  std::cout << "\ninvariants: OK (G1'-G5', L1-L2)\n\n";

  // 5. The KV layer: one store template over any placement backend.
  //    The same driving code runs the paper's local approach and the
  //    Consistent Hashing reference model; only the backend differs.
  const auto drive = [](auto& store, const char* name) {
    store.add_node();
    store.put("greeting", "hello, balanced world");
    store.put("answer", "42");
    store.add_node();  // rebalance happens under live data
    std::cout << "kv[" << name
              << "]: greeting = " << store.get("greeting").value_or("<lost>")
              << ", answer = " << store.get("answer").value_or("<lost>")
              << ", keys moved across nodes: "
              << store.stats().relocation.keys_moved_across_nodes << "\n";
  };
  cobalt::kv::KvStore dht_store({config, 1});
  cobalt::kv::ChKvStore ch_store({config.seed, 32});
  drive(dht_store, "local dht");
  drive(ch_store, "ch");
  return 0;
}
