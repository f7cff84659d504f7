#include "dht/local_dht.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/stats.hpp"

namespace cobalt::dht {

LocalDht::LocalDht(Config config) : DhtBase(config) {}

VNodeId LocalDht::create_vnode(SNodeId host) {
  const VNodeId id = allocate_vnode(host);
  if (vnode_count() == 1) {
    bootstrap(id);
    return id;
  }

  // Section 3.6: draw r uniformly from R_h; the vnode holding the
  // partition containing r is the victim vnode, its group the victim
  // group.
  const HashIndex r = rng_.next();
  const VNodeId victim_vnode = pmap_.lookup(r).owner;
  std::uint32_t slot = vnodes_.at(victim_vnode).group_slot;

  // Section 3.7 case (b): a full victim group splits before accepting
  // the new vnode.
  if (groups_.at(slot).members.size() == config_.vmax()) {
    slot = split_group(slot);
  }

  add_vnode_to_group(id, slot);
  return id;
}

void LocalDht::bootstrap(VNodeId first) {
  // Section 3.7 case (a): the first vnode creates group 0, which
  // receives the whole of R_h divided into Pmin partitions.
  const auto splitlevel =
      static_cast<unsigned>(std::countr_zero(config_.pmin));
  Group root;
  root.id = GroupId::root();
  root.splitlevel = splitlevel;
  root.members.push_back(first);
  root.lpdr.add_vnode(first, static_cast<std::uint32_t>(config_.pmin));

  VNode& v = vnodes_.at(first);
  v.group_slot = 0;
  v.partitions.reserve(config_.pmin);
  for (std::uint64_t prefix = 0; prefix < config_.pmin; ++prefix) {
    const Partition p = Partition::at(prefix, splitlevel);
    v.partitions.push_back(p);
    pmap_.insert(p, first);
  }

  groups_.push_back(std::move(root));
  alive_groups_ = 1;
}

std::uint32_t LocalDht::split_group(std::uint32_t slot) {
  // Copy what we need before groups_ reallocation invalidates references.
  std::vector<VNodeId> members = groups_.at(slot).members;
  const GroupId parent_id = groups_.at(slot).id;
  const unsigned splitlevel = groups_.at(slot).splitlevel;
  COBALT_INVARIANT(members.size() == config_.vmax(),
                   "only full groups split");

  // The model guarantees every member holds exactly Pmin partitions at
  // this moment: the group became full when Vg reached the power of two
  // Vmax, where invariant G5' applies, and no partitions moved since.
  for (const VNodeId m : members) {
    COBALT_INVARIANT(groups_.at(slot).lpdr.count_of(m) == config_.pmin,
                     "a splitting group must be at the G5' fixpoint");
  }

  // Two child groups of Vmin vnodes "randomly selected from the
  // original victim group" (section 3.7).
  shuffle(members, rng_);
  const auto [id_low, id_high] = parent_id.split();

  const auto make_child = [&](const GroupId& id, std::size_t begin_index) {
    Group child;
    child.id = id;
    child.splitlevel = splitlevel;
    child.members.assign(members.begin() + static_cast<std::ptrdiff_t>(begin_index),
                         members.begin() + static_cast<std::ptrdiff_t>(begin_index + config_.vmin));
    for (const VNodeId m : child.members) {
      child.lpdr.add_vnode(m, static_cast<std::uint32_t>(config_.pmin));
    }
    groups_.push_back(std::move(child));
    const auto child_slot = static_cast<std::uint32_t>(groups_.size() - 1);
    for (const VNodeId m : groups_.back().members) {
      vnodes_.at(m).group_slot = child_slot;
    }
    return child_slot;
  };

  const std::uint32_t slot_low = make_child(id_low, 0);
  const std::uint32_t slot_high = make_child(id_high, config_.vmin);

  Group& parent = groups_.at(slot);
  parent.alive = false;
  parent.members.clear();
  parent.lpdr = {};
  ++alive_groups_;  // net effect of -1 parent +2 children

  // "One of these two groups will then be randomly chosen to be the
  // container of the new vnode."
  return rng_.next_bool() ? slot_high : slot_low;
}

void LocalDht::add_vnode_to_group(VNodeId id, std::uint32_t slot) {
  Group& g = groups_.at(slot);
  COBALT_INVARIANT(g.alive, "cannot add a vnode to a retired group");
  COBALT_INVARIANT(g.members.size() < config_.vmax(),
                   "victim group is full; it should have split");

  g.members.push_back(id);
  g.lpdr.add_vnode(id, 0);
  vnodes_.at(id).group_slot = slot;

  // Same supply rule as the global approach, group-scoped (G4'): one
  // group-wide binary split when P_g cannot give every member Pmin.
  if (g.lpdr.total() < g.members.size() * config_.pmin) {
    split_all_partitions(g.members, g.lpdr);
    ++g.splitlevel;
  }
  COBALT_INVARIANT(g.lpdr.total() >= g.members.size() * config_.pmin,
                   "one group split must restore the partition supply");

  greedy_handover(g.lpdr, id);
}

namespace {

/// Owners of a group's partitions indexed by their level-lg prefix.
using PrefixOwners = std::unordered_map<std::uint64_t, VNodeId>;

PrefixOwners collect_prefix_owners(const std::vector<VNodeId>& members,
                                   const std::vector<VNode>& vnodes,
                                   unsigned splitlevel) {
  PrefixOwners owners;
  for (const VNodeId m : members) {
    for (const Partition& p : vnodes.at(m).partitions) {
      COBALT_INVARIANT(p.level() == splitlevel,
                       "G3' broken: mixed splitlevels inside a group");
      owners.emplace(p.prefix(), m);
    }
  }
  return owners;
}

bool buddy_pairs_complete(const PrefixOwners& owners) {
  for (const auto& [prefix, owner] : owners) {
    if (!owners.contains(prefix ^ 1)) return false;
  }
  return true;
}

}  // namespace

void LocalDht::remove_vnode(VNodeId id) {
  const VNode& v = vnode(id);
  COBALT_REQUIRE(v.alive, "vnode is not alive");
  COBALT_REQUIRE(vnode_count() >= 2, "cannot remove the last vnode of a DHT");

  std::uint32_t slot = v.group_slot;
  const std::size_t vg = groups_.at(slot).members.size();

  // Invariant L2 forbids shrinking a group below Vmin while other
  // groups exist; merge with the sibling first (group 0 is exempt while
  // it is the only group).
  if (alive_groups_ > 1 && vg <= config_.vmin) {
    slot = merge_with_sibling(slot);
  }
  remove_from_group(id, slot);
}

void LocalDht::remove_from_group(VNodeId id, std::uint32_t slot) {
  Group& g = groups_.at(slot);
  const std::size_t survivors = g.members.size() - 1;
  COBALT_INVARIANT(survivors >= 1, "a group cannot be emptied by removal");

  // The survivors must be able to absorb the whole group supply within
  // G4' (counts <= Pmax). When they cannot, buddy partitions must merge
  // first - only possible when every buddy pair lives inside the group.
  while (g.lpdr.total() > survivors * config_.pmax()) {
    const PrefixOwners owners =
        collect_prefix_owners(g.members, vnodes_, g.splitlevel);
    if (!buddy_pairs_complete(owners)) {
      throw UnsupportedTopology(
          "vnode removal requires merging partitions whose buddies belong "
          "to other groups; the model does not define cross-group merges "
          "(see DESIGN.md, deletion support)");
    }
    merge_group_partitions(slot, owners);
  }

  // Drain the departing vnode into the successive minima.
  while (g.lpdr.count_of(id) > 0) {
    transfer_one(id, g.lpdr.argmin_excluding(id), g.lpdr);
  }
  g.lpdr.remove_vnode(id);
  auto& members = g.members;
  members.erase(std::find(members.begin(), members.end(), id));
  retire_vnode(id);

  // Opportunistically restore the creation-flow supply trajectory
  // (P_g = smallest power of two >= Vg * Pmin) when buddy pairs permit.
  while (g.lpdr.total() / 2 >= g.members.size() * config_.pmin) {
    const PrefixOwners owners =
        collect_prefix_owners(g.members, vnodes_, g.splitlevel);
    if (!buddy_pairs_complete(owners)) break;
    merge_group_partitions(slot, owners);
  }

  rebalance_pairwise(g.lpdr);
}

void LocalDht::merge_group_partitions(std::uint32_t slot,
                                      const PrefixOwners& owners) {
  Group& g = groups_.at(slot);
  COBALT_INVARIANT(g.splitlevel > 0, "cannot merge below splitlevel 0");
  const unsigned merged_level = g.splitlevel - 1;

  for (const VNodeId m : g.members) vnodes_.at(m).partitions.clear();
  std::unordered_map<VNodeId, std::uint32_t> new_counts;
  for (const VNodeId m : g.members) new_counts.emplace(m, 0);

  for (const auto& [prefix, owner] : owners) {
    if ((prefix & 1) != 0) continue;  // pairs are keyed by the even half
    const Partition merged = Partition::at(prefix >> 1, merged_level);
    // The even half's owner keeps the merged partition (the odd half
    // changes hands when owned elsewhere; on_merge reports both).
    pmap_.merge(merged, owner);
    vnodes_.at(owner).partitions.push_back(merged);
    ++new_counts.at(owner);
    if (observer_ != nullptr) {
      observer_->on_merge(merged, owner, owners.at(prefix | 1));
    }
  }

  for (const VNodeId m : g.members) g.lpdr.set_count(m, new_counts.at(m));
  g.splitlevel = merged_level;
}

std::uint32_t LocalDht::merge_with_sibling(std::uint32_t slot) {
  const GroupId my_id = groups_.at(slot).id;
  if (my_id.depth() < 1) {
    throw UnsupportedTopology(
        "group 0 has no sibling to merge with (and other groups exist)");
  }
  const GroupId sibling_id = my_id.sibling();

  std::uint32_t sibling_slot = kNoSlot;
  for (std::uint32_t s = 0; s < groups_.size(); ++s) {
    if (groups_[s].alive && groups_[s].id == sibling_id) {
      sibling_slot = s;
      break;
    }
  }
  if (sibling_slot == kNoSlot) {
    throw UnsupportedTopology(
        "sibling group " + sibling_id.to_string() +
        " is not a live leaf (it split further); the model does not "
        "define merges across split generations (see DESIGN.md)");
  }

  Group& mine = groups_.at(slot);
  Group& sib = groups_.at(sibling_slot);
  // The caller removes one vnode right after the merge, so the merged
  // group may transiently hold Vmax + 1 members.
  if (mine.members.size() + sib.members.size() > config_.vmax() + 1) {
    throw UnsupportedTopology(
        "merging with the sibling would exceed Vmax; the model does not "
        "define partial (vnode-stealing) merges (see DESIGN.md)");
  }

  // Equalize splitlevels by splitting the coarser side's partitions.
  // Sibling groups always cover equal quotas (a group's quota never
  // changes after its creating split), so equal levels imply equal Pg
  // and the union's Pg = 2 * Pg_finer stays a power of two (G2').
  while (mine.splitlevel < sib.splitlevel) {
    split_all_partitions(mine.members, mine.lpdr);
    ++mine.splitlevel;
  }
  while (sib.splitlevel < mine.splitlevel) {
    split_all_partitions(sib.members, sib.lpdr);
    ++sib.splitlevel;
  }

  // Build the merged group in a fresh slot under the parent identifier.
  Group merged;
  merged.id = my_id.parent();
  merged.splitlevel = mine.splitlevel;
  merged.members = mine.members;
  merged.members.insert(merged.members.end(), sib.members.begin(),
                        sib.members.end());
  for (const VNodeId m : mine.members)
    merged.lpdr.add_vnode(m, mine.lpdr.count_of(m));
  for (const VNodeId m : sib.members)
    merged.lpdr.add_vnode(m, sib.lpdr.count_of(m));

  mine.alive = false;
  mine.members.clear();
  mine.lpdr = {};
  sib.alive = false;
  sib.members.clear();
  sib.lpdr = {};

  groups_.push_back(std::move(merged));
  const auto merged_slot = static_cast<std::uint32_t>(groups_.size() - 1);
  for (const VNodeId m : groups_.back().members) {
    vnodes_.at(m).group_slot = merged_slot;
  }
  --alive_groups_;  // net effect of -2 +1

  // Equalization may have pushed counts of the coarser side above Pmax;
  // a rebalance inside the merged group restores G4'.
  rebalance_pairwise(groups_.at(merged_slot).lpdr);
  return merged_slot;
}

std::uint64_t LocalDht::ideal_group_count(std::uint64_t vnodes) const {
  COBALT_REQUIRE(vnodes >= 1, "ideal group count needs at least one vnode");
  std::uint64_t groups = 1;
  std::uint64_t capacity = config_.vmax();
  while (capacity < vnodes) {
    capacity *= 2;
    groups *= 2;
  }
  return groups;
}

const Group& LocalDht::group(std::uint32_t slot) const {
  COBALT_REQUIRE(slot < groups_.size(), "unknown group slot");
  return groups_[slot];
}

std::vector<std::uint32_t> LocalDht::live_groups() const {
  std::vector<std::uint32_t> slots;
  slots.reserve(alive_groups_);
  for (std::uint32_t s = 0; s < groups_.size(); ++s)
    if (groups_[s].alive) slots.push_back(s);
  return slots;
}

std::uint32_t LocalDht::group_of(VNodeId id) const {
  const VNode& v = vnode(id);
  COBALT_REQUIRE(v.alive, "vnode is not alive");
  return v.group_slot;
}

std::vector<double> LocalDht::quotas() const {
  std::vector<double> result;
  result.reserve(vnode_count());
  for (const VNodeId id : live_vnodes()) {
    const VNode& v = vnodes_[id];
    const double cell =
        std::pow(0.5, static_cast<int>(groups_[v.group_slot].splitlevel));
    result.push_back(static_cast<double>(v.partitions.size()) * cell);
  }
  return result;
}

std::vector<double> LocalDht::group_quotas() const {
  std::vector<double> result;
  result.reserve(alive_groups_);
  for (const std::uint32_t s : live_groups()) {
    const Group& g = groups_[s];
    const double cell = std::pow(0.5, static_cast<int>(g.splitlevel));
    result.push_back(static_cast<double>(g.lpdr.total()) * cell);
  }
  return result;
}

double LocalDht::sigma_qv() const {
  const std::vector<double> q = quotas();
  return relative_stddev(q);
}

double LocalDht::sigma_qg() const {
  const std::vector<double> q = group_quotas();
  return relative_stddev_around(q, 1.0 / static_cast<double>(q.size()));
}

Dyadic LocalDht::exact_group_quota(std::uint32_t slot) const {
  const Group& g = group(slot);
  return Dyadic::one_over_pow2(g.splitlevel) * g.lpdr.total();
}

}  // namespace cobalt::dht
