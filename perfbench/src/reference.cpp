// perfbench/src/reference.cpp
//
// Reference figure `event_cost` (not a gated workload): the wall time
// of one k=3 membership event over the same loaded population for the
// Consistent Hashing reference, the paper's local approach and
// rendezvous hashing, serially and with a worker pool attached. The
// README quotes its ratios.

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "kv/store.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kKeys = 200000;
constexpr std::size_t kNodes = 16;
constexpr std::size_t kCycles = 4;  // join + drain pairs per scheme

cobalt::dht::Config local_config() {
  cobalt::dht::Config config;
  config.pmin = 32;
  config.vmin = 8;
  config.seed = 42;
  return config;
}

/// Median ms of kCycles joins and drains on a loaded k=3 store.
template <typename StoreT>
double event_ms(typename StoreT::Options options,
                const std::vector<std::string>& keys,
                cobalt::ThreadPool* pool) {
  StoreT store(std::move(options), cobalt::placement::ReplicationSpec{3});
  for (std::size_t n = 0; n < kNodes; ++n) store.add_node();
  for (const std::string& key : keys) store.put(key, "v");
  store.set_thread_pool(pool);
  Samples ms;
  for (std::size_t c = 0; c < kCycles; ++c) {
    double t0 = now_ns();
    const cobalt::placement::NodeId id = store.add_node();
    ms.add((now_ns() - t0) * 1e-6);
    t0 = now_ns();
    store.remove_node(id);
    ms.add((now_ns() - t0) * 1e-6);
  }
  store.set_thread_pool(nullptr);
  return ms.median();
}

}  // namespace

Result run_event_cost(const RunConfig& config) {
  Result out;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back("e" + std::to_string(config.seed % 100000) + "/" +
                   std::to_string(i));
  }
  const std::size_t threads =
      config.threads != 0 ? config.threads
                          : std::max(1u, std::thread::hardware_concurrency());
  cobalt::ThreadPool pool(threads);
  for (cobalt::ThreadPool* p : {static_cast<cobalt::ThreadPool*>(nullptr),
                                &pool}) {
    const std::string mode = p == nullptr ? "serial" : "pool";
    const double ch = event_ms<cobalt::kv::ChKvStore>({}, keys, p);
    const double local =
        event_ms<cobalt::kv::KvStore>({local_config(), 1}, keys, p);
    const double hrw = event_ms<cobalt::kv::HrwKvStore>({}, keys, p);
    out.metric(mode + ".ch_event_ms", ch, "ms");
    out.metric(mode + ".local_event_ms", local, "ms");
    out.metric(mode + ".hrw_event_ms", hrw, "ms");
    out.metric(mode + ".local_over_ch", local / ch, "ratio");
    out.metric(mode + ".hrw_over_ch", hrw / ch, "ratio");
  }
  out.attempted = 2 * 3 * 2 * kCycles;
  out.notes.push_back("event_cost: k=3, " + std::to_string(kKeys) +
                      " keys, " + std::to_string(kNodes) +
                      " nodes, pool of " + std::to_string(threads) +
                      " threads");
  return out;
}

}  // namespace perfbench
