#include "dht/global_dht.hpp"

#include <bit>
#include <cmath>

#include "common/stats.hpp"

namespace cobalt::dht {

GlobalDht::GlobalDht(Config config) : DhtBase(config) {}

VNodeId GlobalDht::create_vnode(SNodeId host) {
  const VNodeId id = allocate_vnode(host);
  if (vnode_count() == 1) {
    bootstrap(id);
    return id;
  }

  // Step 1 of section 2.5: a GPDR entry with zero partitions.
  gpdr_.add_vnode(id, 0);

  // Invariant G4 requires every vnode (including the new one) to end
  // with at least Pmin partitions, which needs P >= V * Pmin. The
  // supply runs short exactly when V-1 was a power of two (G5: all at
  // Pmin); every vnode then binary-splits its partitions (section 2.5).
  if (gpdr_.total() < vnode_count() * config_.pmin) {
    split_everything();
  }
  COBALT_INVARIANT(gpdr_.total() >= vnode_count() * config_.pmin,
                   "one global split must restore the partition supply");

  // Steps 2-4: greedy handover from the successive maxima.
  greedy_handover(gpdr_, id);
  return id;
}

void GlobalDht::remove_vnode(VNodeId id) {
  const VNode& v = vnode(id);
  COBALT_REQUIRE(v.alive, "vnode is not alive");
  COBALT_REQUIRE(vnode_count() >= 2,
                 "cannot remove the last vnode of a DHT");

  // Drain the departing vnode into the successive minima, which keeps
  // sigma(Pv) of the survivors minimal at every step.
  while (gpdr_.count_of(id) > 0) {
    transfer_one(id, gpdr_.argmin_excluding(id), gpdr_);
  }
  gpdr_.remove_vnode(id);
  retire_vnode(id);

  // Restore the creation-flow trajectory P = 2^ceil(log2(V*Pmin)):
  // merge buddy partitions while the halved supply still honours G4's
  // lower bound.
  while (gpdr_.total() / 2 >= vnode_count() * config_.pmin) {
    merge_everything();
  }
  rebalance_pairwise(gpdr_);
}

void GlobalDht::bootstrap(VNodeId first) {
  // The first vnode receives the whole range, divided into exactly Pmin
  // partitions (G4 and G2: P = Pmin is a power of 2).
  splitlevel_ = static_cast<unsigned>(std::countr_zero(config_.pmin));
  VNode& v = vnodes_.at(first);
  v.partitions.reserve(config_.pmin);
  for (std::uint64_t prefix = 0; prefix < config_.pmin; ++prefix) {
    const Partition p = Partition::at(prefix, splitlevel_);
    v.partitions.push_back(p);
    pmap_.insert(p, first);
  }
  gpdr_.add_vnode(first, static_cast<std::uint32_t>(config_.pmin));
}

void GlobalDht::split_everything() {
  const std::vector<VNodeId> members = live_vnodes();
  split_all_partitions(members, gpdr_);
  ++splitlevel_;
}

void GlobalDht::merge_everything() {
  COBALT_INVARIANT(splitlevel_ > 0, "cannot merge below splitlevel 0");
  const std::uint64_t partition_count = gpdr_.total();

  // Owner of each level-l cell, indexed by prefix.
  std::vector<VNodeId> owner(partition_count, kInvalidVNode);
  pmap_.for_each([&](const Partition& p, VNodeId o) {
    COBALT_INVARIANT(p.level() == splitlevel_,
                     "global approach requires a uniform splitlevel");
    owner.at(p.prefix()) = o;
  });

  // Each buddy pair collapses into its parent, owned by whoever held
  // the even half; the odd half changes hands when it lived on a
  // different vnode (reported through on_merge). Rebuild vnode
  // partition lists and the routing map.
  const unsigned merged_level = splitlevel_ - 1;
  for (const VNodeId id : live_vnodes()) vnodes_.at(id).partitions.clear();
  PartitionMap rebuilt;
  std::vector<std::uint32_t> new_counts(vnodes_.size(), 0);
  for (std::uint64_t prefix = 0; prefix * 2 < partition_count; ++prefix) {
    const VNodeId o = owner.at(prefix * 2);
    const Partition merged = Partition::at(prefix, merged_level);
    vnodes_.at(o).partitions.push_back(merged);
    rebuilt.insert(merged, o);
    ++new_counts.at(o);
    if (observer_ != nullptr) {
      observer_->on_merge(merged, o, owner.at(prefix * 2 + 1));
    }
  }
  pmap_ = std::move(rebuilt);
  for (const VNodeId id : live_vnodes()) {
    gpdr_.set_count(id, new_counts.at(id));
  }
  splitlevel_ = merged_level;
}

std::vector<double> GlobalDht::quotas() const {
  // In the global approach every partition has size 2^(Bh - l), so
  // Qv = Pv / 2^l exactly.
  const double cell = std::pow(0.5, static_cast<int>(splitlevel_));
  std::vector<double> result;
  result.reserve(vnode_count());
  for (const VNodeId id : live_vnodes()) {
    result.push_back(static_cast<double>(gpdr_.count_of(id)) * cell);
  }
  return result;
}

double GlobalDht::sigma_qv() const {
  const std::vector<double> q = quotas();
  return relative_stddev(q);
}

double GlobalDht::sigma_pv() const { return gpdr_.relative_stddev_counts(); }

}  // namespace cobalt::dht
